//! The cycle-level out-of-order pipeline: lowering to an execution plan,
//! then replaying it.
//!
//! The simulator is trace-driven: the functional executor
//! ([`sdiq_isa::Executor`]) provides the committed dynamic instruction
//! stream, and this model replays it through an out-of-order pipeline with
//! the Table 1 configuration, adding timing effects:
//!
//! * fetch through the I-cache with hybrid branch prediction and a BTB;
//!   fetch stalls at a mispredicted branch until it resolves (plus a
//!   redirect penalty), which is the standard trace-driven approximation of
//!   wrong-path execution,
//! * a multi-cycle decode pipeline feeding the fetch queue (§3.2),
//! * dispatch with register renaming onto the banked physical register
//!   files, special-NOOP stripping at the final decode stage (hints consume
//!   a dispatch slot, §5.2.1), instruction-tag processing, and the
//!   `new_head` / `max_new_range` dispatch limit,
//! * wakeup/select issue from the banked non-collapsible issue queue with
//!   per-class functional-unit arbitration,
//! * execution latencies per Table 1 and a two-level data-cache hierarchy,
//! * in-order commit from the reorder buffer.
//!
//! Every structure feeds the activity counters in [`crate::stats`], which
//! the power model consumes.
//!
//! # Lowering: [`ExecPlan::lower`] and [`ExecPlan::build`]
//!
//! A large part of that work is a pure function of
//! `(program, trace, SimConfig)` and therefore identical across the many
//! runs a sweep, a matrix job or a `repro serve` batch performs on the
//! same cell shape. Lowering computes it once, into a plan of two parts:
//!
//! * the **static table**: one [`InstRecord`] per instruction address of
//!   the program, indexed by [`commit_slot`] — destination / source
//!   architectural registers, functional-unit class, execution latency,
//!   hint site and value;
//! * the **stream**: one entry per committed instruction — the static slot
//!   it executes (`u32`), its front-end outcome as [`fetch`] flags (`u8`:
//!   branch direction misprediction, BTB stall, fetch-group end, new
//!   I-cache line, L1i miss) and its memory address (`u64`, with the
//!   simulator's default already applied), 13 bytes per record in three
//!   flat arrays. The predictor and the L1i are touched only by fetch, in
//!   strict trace order, on purely static inputs, so their entire
//!   evolution is precomputable. The stream also carries the L1i-missing
//!   fetch addresses, the commits of each static instruction, the
//!   front-end totals, and its program with the markers cleared;
//!
//! and from the two, every activity counter whose final value is
//! statically determined (committed/dispatched/issued counts, branch and
//! I-cache totals, register-file port counts, wakeup broadcasts — the
//! counters are only observed after the run, never during it).
//!
//! One private builder does the lowering, one committed instruction at a
//! time and without looking ahead: a taken control transfer's BTB check
//! waits for the next instruction's address (or takes `addr + 4` when the
//! stream ends on it). [`ExecPlan::lower`] feeds it straight from the
//! functional executor's stream, so no trace is ever collected; that is
//! the production path. [`ExecPlan::build`] feeds it a collected
//! [`Trace`], for the plan lint's `repro lint` walk, the tests and the
//! layer benchmark. Both give the same plan.
//!
//! # Re-marking: [`ExecPlan::remark`]
//!
//! The stream sits behind an `Arc`, and it depends on three things only:
//! the program with its markers cleared, the machine's [`FrontEnd`] (the
//! branch predictor and the L1i, the only configuration lowering reads)
//! and the instruction cap. A program that differs from the stream's
//! program in nothing but the markers [`Instruction::iq_hint`] and
//! [`Instruction::low_energy`] ([`only_markers_differ`]) executes the same
//! path at the same addresses, fetches the same lines and commits the
//! same stream; only decode reads the markers. Any machine with the same
//! front end fetches that stream identically; only replay reads the back
//! end (queues, register files, data caches, widths). [`ExecPlan::remark`]
//! gives such a program its plan on such a machine without executing
//! anything: a static table and baked totals built from the program and
//! the target configuration, over the shared stream. The tagging
//! techniques (`extension`, `improved`) take their plans from the raw
//! program's this way, and every point of an issue-queue or bank sweep
//! takes its plans from the first point's. `remark` refuses any other
//! program (an inserted hint NOOP, a changed opcode, operand, immediate
//! or target, a moved block) and any other front end, because either
//! commits a different stream; such a plan is lowered. A re-mark keeps
//! its stream's instruction cap. A stream lives as long as the last plan
//! that shares it.
//!
//! # Replay: [`PlanSimulator`]
//!
//! [`PlanSimulator`] then runs the cycle loop over the plan, touching only
//! *dynamic* state: the shared L2 (its interleave of instruction and data
//! refills depends on run-time timing), the D-cache, renaming, the issue
//! queue, the event calendar and the adaptive controller. Dispatch reads
//! each instruction's static record through its stream entry's slot and
//! copies what issue needs into the ROB entry. The loop performs no
//! per-cycle heap allocation and never scans a structure proportionally
//! to its capacity:
//!
//! * **Ready set** — a bitmask over the ROB ring marks the entries whose
//!   operands have all arrived: set at dispatch, or when the issue queue's
//!   consumer lists report an entry's last wakeup. Issue reads each 64-bit
//!   word of it once, from the oldest in-flight id's position, which is
//!   age order, against a per-class functional-unit limit table built
//!   once.
//! * **In-flight ring** — instructions get sequential ids and commit in
//!   order, so the in-flight table is a ring indexed by id that doubles as
//!   the ROB.
//! * **Event calendar** — completion events live in a circular calendar
//!   sized to the maximum execution latency, one FIFO list per cycle
//!   bucket, linked through the ROB ring: scheduling appends at a
//!   bucket's tail and harvesting walks it from the head, both O(events)
//!   with no storage beyond the ring. Events of one cycle write back in
//!   the order they were scheduled, which the gated wakeup count depends
//!   on.
//!
//! One plan serves every resize policy of a cell shape: nothing in the
//! plan depends on [`ResizePolicy`]. The loop's results are pinned by
//! checks that are not a second simulator: the workspace's golden save
//! and conservation identities, the O(capacity) reference model the issue
//! queue is tested against, and `sdiq-verify`'s plan lint, which re-derives
//! the static table from the program and every stream entry from a trace.

use crate::branch::BranchPredictor;
use crate::cache::{Cache, CacheHierarchy};
use crate::config::SimConfig;
use crate::plan_queue::PlanQueue;
use crate::regfile::RenamedRegFile;
use crate::resize::{AdaptiveController, AdaptiveObservation, ResizePolicy};
use crate::stats::ActivityStats;
use sdiq_isa::exec::DATA_BASE;
use sdiq_isa::program::{INSTR_BYTES, TEXT_BASE};
use sdiq_isa::{
    AddressMap, ArchReg, BlockId, BlockRef, DynInst, ExecError, Executor, FuClass, Instruction,
    ProcId, Program, RegClass, Trace,
};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Errors a simulation can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The pipeline stopped making progress (indicates a model bug; the
    /// message carries diagnostic state).
    Deadlock {
        /// Cycle at which progress stopped.
        cycle: u64,
        /// Human-readable diagnostic.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { cycle, detail } => {
                write!(f, "pipeline deadlock at cycle {cycle}: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Activity counters for the run.
    pub stats: ActivityStats,
    /// Resize decisions taken by the adaptive controller (0 unless the
    /// adaptive policy was used).
    pub adaptive_resizes: u64,
}

/// End of a completion list.
const NO_EVENT: u32 = u32::MAX;

/// Circular event calendar for completion events: bucket `cycle % len` is
/// a FIFO list of the ROB ring positions completing at `cycle`, linked
/// through [`InFlight::next_event`]. O(1) schedule, O(due events) harvest,
/// and no storage beyond each bucket's two ends.
#[derive(Debug)]
struct EventWheel {
    /// First and last ring position of each bucket's list ([`NO_EVENT`]:
    /// empty).
    heads: Vec<u32>,
    tails: Vec<u32>,
    /// `heads.len() - 1`; the length is a power of two, so `due & mask`
    /// equals `due % len` without the hardware division.
    mask: u64,
}

impl EventWheel {
    /// A wheel able to schedule up to `max_latency` cycles ahead.
    fn new(max_latency: u64) -> Self {
        let len = (max_latency + 1).next_power_of_two() as usize;
        EventWheel {
            heads: vec![NO_EVENT; len],
            tails: vec![NO_EVENT; len],
            mask: len as u64 - 1,
        }
    }

    /// Schedules the instruction at ring position `pos` to complete at
    /// `due` (seen from `now`), after every event already due then.
    fn schedule(&mut self, rob: &mut [InFlight], now: u64, due: u64, pos: u32) {
        debug_assert!(due > now, "completion must be in the future");
        assert!(
            (due - now) <= self.mask,
            "latency {} exceeds the event calendar horizon {}",
            due - now,
            self.mask + 1
        );
        let bucket = (due & self.mask) as usize;
        rob[pos as usize].next_event = NO_EVENT;
        match self.tails[bucket] {
            NO_EVENT => self.heads[bucket] = pos,
            tail => rob[tail as usize].next_event = pos,
        }
        self.tails[bucket] = pos;
    }

    /// Takes the list due at `cycle`: its first ring position, or
    /// [`NO_EVENT`]. Each entry's [`InFlight::next_event`] names the next.
    fn take_due(&mut self, cycle: u64) -> u32 {
        let bucket = (cycle & self.mask) as usize;
        self.tails[bucket] = NO_EVENT;
        std::mem::replace(&mut self.heads[bucket], NO_EVENT)
    }
}

/// The most stream records [`ExecPlan::lower`] reserves room for up
/// front (the 2,000,000-instruction cap of the experiments fits): a
/// larger cap grows the arrays past it as records arrive.
const MAX_RESERVED_RECORDS: u64 = 1 << 22;

/// The longest possible completion latency under `config`: a load missing
/// all the way to memory, or the slowest functional unit (fp divide); +4
/// for the issue-cycle offsets. Sizes the event calendar.
fn max_completion_latency(config: &SimConfig) -> u64 {
    u64::from(1 + config.l1d.hit_latency + config.l2.hit_latency + config.memory_latency).max(16)
        + 4
}

/// Static flags of one instruction (bit positions in
/// [`InstRecord::flags`]). Public so `sdiq-verify`'s plan lint can decode
/// records.
pub mod flag {
    /// The instruction is a special NOOP, stripped at the final decode
    /// stage.
    pub const IS_HINT: u8 = 1 << 0;
    /// The instruction carries an `iq_hint` value (hint NOOP or tag).
    pub const HAS_HINT: u8 = 1 << 1;
    /// The instruction is a load (latency comes from the data cache).
    pub const IS_LOAD: u8 = 1 << 2;
    /// The instruction is a store (cache access, 1-cycle completion).
    pub const IS_STORE: u8 = 1 << 3;
}

/// Front-end outcome flags of one committed instruction (bit positions in
/// [`ExecPlan::fetch_flags`]). Public so the plan lint can decode them.
pub mod fetch {
    /// Fetch blocks behind this instruction until it resolves: its branch
    /// direction was mispredicted.
    pub const MISPREDICTED: u8 = 1 << 0;
    /// The taken control transfer missed in the BTB (2-cycle fetch bubble).
    pub const BTB_STALL: u8 = 1 << 1;
    /// Fetch stops after this instruction (taken branch or unconditional
    /// control transfer).
    pub const ENDS_GROUP: u8 = 1 << 2;
    /// This instruction begins a new I-cache line: fetch performs one
    /// I-cache access here.
    pub const NEW_LINE: u8 = 1 << 3;
    /// That access misses in the L1i; the run-time completes it with a
    /// shared-L2 refill and stalls fetch for the returned latency.
    pub const L1I_MISS: u8 = 1 << 4;
}

/// A fully lowered, allocation-free execution plan for one
/// `(program, trace, SimConfig)` cell shape: a static table of the program
/// over a shared committed stream (see the module docs). Lower once with
/// [`ExecPlan::lower`] (or [`ExecPlan::build`] over a collected trace),
/// re-mark for a program that differs only in markers with
/// [`ExecPlan::remark`], and run any number of times with
/// [`PlanSimulator`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPlan {
    config: SimConfig,
    workload: String,
    /// One record per instruction address of the program, indexed by
    /// [`commit_slot`].
    statics: Vec<InstRecord>,
    /// The committed stream, shared with every plan re-marked from this
    /// one.
    stream: Arc<Stream>,
    /// Every activity counter whose final value is a pure function of the
    /// plan inputs, pre-totalled; the run adds only the dynamic counters.
    baked: ActivityStats,
}

/// The half of a plan that executing the program and walking its fetch
/// produce, shared by every program that differs from it only in markers.
#[derive(Debug, Clone, PartialEq)]
struct Stream {
    /// Per committed instruction: the [`commit_slot`] of its address.
    slots: Vec<u32>,
    /// Per committed instruction: its [`fetch`] flags.
    flags: Vec<u8>,
    /// Per committed instruction: its memory address, with the
    /// simulator's default already applied for non-memory opcodes.
    mem_addrs: Vec<u64>,
    /// Fetch addresses of the L1i-missing accesses, in program order
    /// (consumed by a cursor: the misses are replayed exactly once each).
    imiss_addrs: Vec<u64>,
    /// Commits of each static instruction, indexed by [`commit_slot`] of
    /// its address. Hint NOOPs strip at decode and never commit; no marker
    /// turns an instruction into one or back, so re-marked plans share
    /// the counts.
    commit_counts: Vec<u32>,
    /// The totals fetch and decode determine.
    front_end: FrontEndTotals,
    /// The program the stream was lowered from, with its markers cleared:
    /// what [`ExecPlan::remark`] checks a program against.
    source: Program,
}

/// The activity counters the stream alone determines.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct FrontEndTotals {
    branches: u64,
    mispredicted_branches: u64,
    btb_misses: u64,
    icache_misses: u64,
    /// Hint NOOPs stripped at decode.
    committed_hints: u64,
}

/// One instruction's fully decoded static side, packed to 10 bytes. Fields
/// are public (read-only in practice — the plan hands out
/// `&[InstRecord]`) so `sdiq-verify`'s plan lint can round-trip every
/// record against its source instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstRecord {
    /// Static flags (see [`flag`]).
    pub flags: u8,
    /// Dense destination architectural register ([`NO_REG`] = none).
    pub dest: u16,
    /// Dense source architectural registers ([`NO_REG`] = absent).
    pub srcs: [u16; 2],
    /// Functional-unit class.
    pub fu: FuClass,
    /// Fixed execution latency (`opcode.latency().max(1)`); loads/stores
    /// take theirs from the cache hierarchy.
    pub latency: u8,
    /// `iq_hint` value (meaningful when [`flag::HAS_HINT`]).
    pub hint: u8,
}

impl InstRecord {
    /// The record at the one address an empty block occupies, which no
    /// committed instruction executes.
    const GAP: InstRecord = InstRecord {
        flags: 0,
        dest: NO_REG,
        srcs: [NO_REG; 2],
        fu: FuClass::None,
        latency: 1,
        hint: 0,
    };

    /// The decoded static side of `inst`.
    fn of(inst: &Instruction) -> Self {
        let mut flags = 0;
        if inst.is_hint_noop() {
            flags |= flag::IS_HINT;
        }
        if inst.iq_hint.is_some() {
            flags |= flag::HAS_HINT;
        }
        if inst.opcode.is_load() {
            flags |= flag::IS_LOAD;
        }
        if inst.opcode.is_store() {
            flags |= flag::IS_STORE;
        }
        let mut srcs = [NO_REG; 2];
        for (slot, src) in srcs.iter_mut().zip(inst.srcs.iter()) {
            if let Some(arch) = src {
                *slot = dense_arch(*arch);
            }
        }
        InstRecord {
            flags,
            dest: inst.dest.map_or(NO_REG, dense_arch),
            srcs,
            fu: inst.opcode.fu_class(),
            latency: inst.opcode.latency().max(1) as u8,
            hint: inst.iq_hint.unwrap_or(0),
        }
    }
}

impl ExecPlan {
    /// Lowers `program` / `trace` under `config` into a plan. The trace
    /// must have been produced by executing exactly this program
    /// (instruction locations are looked up in it).
    pub fn build(config: SimConfig, program: &Program, trace: &Trace) -> Self {
        let mut builder = PlanBuilder::new(config, program, trace.len());
        for dyn_inst in &trace.committed {
            builder.push(dyn_inst);
        }
        builder.finish()
    }

    /// Executes `program` for at most `max_insts` dynamic instructions and
    /// lowers the committed stream under `config` as it is produced. The
    /// plan equals [`ExecPlan::build`] over the trace
    /// `Executor::new(program).run(max_insts)` would collect, without that
    /// trace ever existing.
    ///
    /// # Errors
    ///
    /// The executor's fault, if the program does not execute cleanly.
    pub fn lower(config: SimConfig, program: &Program, max_insts: u64) -> Result<Self, ExecError> {
        // Reserved from the cap and shrunk at the end: the reservation is
        // address space only until a record is written, and the arrays
        // never move while they fill.
        let reserve = max_insts.min(MAX_RESERVED_RECORDS) as usize;
        let mut builder = PlanBuilder::new(config, program, reserve);
        Executor::new(program).stream(max_insts, |dyn_inst| builder.push(&dyn_inst))?;
        Ok(builder.finish())
    }

    /// The plan of `program` on the machine `config`, over this plan's
    /// stream and without executing anything: a static table and baked
    /// totals built from `program` and `config`, the stream shared. It
    /// equals the plan [`ExecPlan::lower`] gives `program` under `config`
    /// and this stream's instruction cap. The same program on the same
    /// machine is the special case that gives this plan back.
    ///
    /// `None` unless `config` has this plan's front end and `program`
    /// differs from the stream's program in nothing but the markers (see
    /// [`ExecPlan::can_remark`]): anything else commits a different stream
    /// and must be lowered.
    pub fn remark(&self, config: SimConfig, program: &Program) -> Option<ExecPlan> {
        self.can_remark(&config, program)
            .then(|| ExecPlan::over(config, program, Arc::clone(&self.stream)))
    }

    /// `true` if [`ExecPlan::remark`] accepts `program` on `config`: the
    /// machine has this plan's [`FrontEnd`](crate::FrontEnd), and the
    /// program differs from the one this plan's stream was lowered from in
    /// nothing but the markers ([`only_markers_differ`]).
    pub fn can_remark(&self, config: &SimConfig, program: &Program) -> bool {
        config.front_end() == self.config.front_end()
            && only_markers_differ(&self.stream.source, program)
    }

    /// `true` if `self` and `other` share one stream: one was re-marked
    /// from the other, or both from a third plan.
    pub fn shares_stream(&self, other: &ExecPlan) -> bool {
        Arc::ptr_eq(&self.stream, &other.stream)
    }

    /// The plan of `program` over `stream`: its static table, and its baked
    /// totals from the table, the stream's commit counts and its front-end
    /// totals.
    fn over(config: SimConfig, program: &Program, stream: Arc<Stream>) -> ExecPlan {
        let counts = &stream.commit_counts;
        let front_end = stream.front_end;
        let mut baked = ActivityStats {
            iq_total_banks: config.iq.banks() as u64,
            iq_total_entries: config.iq.entries as u64,
            int_rf_total_banks: config.int_rf.banks() as u64,
            fp_rf_total_banks: config.fp_rf.banks() as u64,
            branches: front_end.branches,
            mispredicted_branches: front_end.mispredicted_branches,
            btb_misses: front_end.btb_misses,
            icache_misses: front_end.icache_misses,
            committed_hints: front_end.committed_hints,
            ..ActivityStats::default()
        };
        let mut statics = vec![InstRecord::GAP; counts.len()];
        for_each_instruction(program, |slot, inst| {
            statics[slot] = InstRecord::of(inst);
            // Every commit dispatches, issues and commits once, reading
            // its sources and (if present) broadcasting its destination —
            // all static totals.
            let commits = u64::from(counts[slot]);
            baked.committed += commits;
            baked.dispatched += commits;
            baked.issued += commits;
            baked.iq_writes += commits;
            baked.iq_reads += commits;
            if inst.low_energy {
                baked.committed_low_energy += commits;
            }
            if let Some(dest) = inst.dest {
                baked.wakeup_broadcasts += commits;
                match dest.class() {
                    RegClass::Int => baked.int_rf_writes += commits,
                    RegClass::Fp => baked.fp_rf_writes += commits,
                }
            }
            for src in inst.srcs.iter().flatten() {
                match src.class() {
                    RegClass::Int => baked.int_rf_reads += commits,
                    RegClass::Fp => baked.fp_rf_reads += commits,
                }
            }
        });
        // Full-queue wakeup comparisons are `2 × capacity` per broadcast
        // and the broadcast count is static, so the total is too.
        baked.wakeup_comparisons_full = baked.wakeup_broadcasts * 2 * config.iq.entries as u64;
        ExecPlan {
            config,
            workload: program.name.clone(),
            statics,
            stream,
            baked,
        }
    }

    /// Number of dynamic instructions the plan covers.
    pub fn len(&self) -> usize {
        self.stream.slots.len()
    }

    /// `true` if the plan covers an empty trace.
    pub fn is_empty(&self) -> bool {
        self.stream.slots.is_empty()
    }

    /// The simulator configuration the plan was lowered for.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The workload (program) name, for report labelling.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// The static table: one record per instruction address of the
    /// program, indexed by [`commit_slot`].
    pub fn statics(&self) -> &[InstRecord] {
        &self.statics
    }

    /// The static slot of each committed instruction, in trace order.
    pub fn slots(&self) -> &[u32] {
        &self.stream.slots
    }

    /// The [`fetch`] flags of each committed instruction, in trace order.
    pub fn fetch_flags(&self) -> &[u8] {
        &self.stream.flags
    }

    /// The per-instruction memory addresses (the simulator's default
    /// already applied for non-memory opcodes), in trace order.
    pub fn mem_addrs(&self) -> &[u64] {
        &self.stream.mem_addrs
    }

    /// Fetch addresses of the L1i-missing accesses, in program order.
    pub fn imiss_addrs(&self) -> &[u64] {
        &self.stream.imiss_addrs
    }

    /// The statically pre-totalled activity counters.
    pub fn baked_stats(&self) -> &ActivityStats {
        &self.baked
    }

    /// How often each static instruction commits over the plan's stream,
    /// indexed by [`commit_slot`] of its address. Hint NOOPs strip at
    /// decode and never commit, so the counts sum to the baked
    /// `committed`.
    pub fn commit_counts(&self) -> &[u32] {
        &self.stream.commit_counts
    }

    /// Mutable access to the static table, for seeded-defect tests that
    /// deliberately corrupt a plan. Not part of the stable API.
    #[doc(hidden)]
    pub fn statics_mut(&mut self) -> &mut [InstRecord] {
        &mut self.statics
    }

    /// Mutable access to the fetch flags, for seeded-defect tests. The
    /// stream is copied first if another plan shares it. Not part of the
    /// stable API.
    #[doc(hidden)]
    pub fn fetch_flags_mut(&mut self) -> &mut [u8] {
        &mut Arc::make_mut(&mut self.stream).flags
    }

    /// Mutable access to the commit counts, for seeded-defect tests. The
    /// stream is copied first if another plan shares it. Not part of the
    /// stable API.
    #[doc(hidden)]
    pub fn commit_counts_mut(&mut self) -> &mut [u32] {
        &mut Arc::make_mut(&mut self.stream).commit_counts
    }
}

/// The index of the instruction at `addr` in [`ExecPlan::statics`] and
/// [`ExecPlan::commit_counts`]: instruction addresses are dense from the
/// text base, one per [`INSTR_BYTES`].
pub fn commit_slot(addr: u64) -> usize {
    ((addr - TEXT_BASE) / INSTR_BYTES) as usize
}

/// Calls `visit` with the [`commit_slot`] of every instruction of
/// `program`, and the instruction.
fn for_each_instruction<'a>(program: &'a Program, mut visit: impl FnMut(usize, &'a Instruction)) {
    let addresses = AddressMap::build(program);
    for (proc, procedure) in program.iter_procs() {
        for (block, basic_block) in procedure.iter_blocks() {
            let base = commit_slot(addresses.block_addr(BlockRef { proc, block }));
            for (index, inst) in basic_block.instructions.iter().enumerate() {
                visit(base + index, inst);
            }
        }
    }
}

/// Commits of the instructions `program` marks [`Instruction::low_energy`],
/// given the commit counts of a plan lowered from a program with the same
/// instruction addresses. Over `program`'s own plan this is its baked
/// `committed_low_energy`.
pub fn low_energy_commits(program: &Program, commit_counts: &[u32]) -> u64 {
    let mut total = 0;
    for_each_instruction(program, |slot, inst| {
        if inst.low_energy {
            total += u64::from(commit_counts[slot]);
        }
    });
    total
}

/// `inst` with the markers [`Instruction::low_energy`] and
/// [`Instruction::iq_hint`] cleared.
fn unmarked(inst: &Instruction) -> Instruction {
    Instruction {
        low_energy: false,
        iq_hint: None,
        ..inst.clone()
    }
}

/// A fingerprint of `program` with its markers cleared: it hashes exactly
/// what [`only_markers_differ`] compares, so two programs it accepts have
/// equal fingerprints. Equal fingerprints say nothing on their own; a
/// cache that keys streams by it confirms with [`only_markers_differ`]
/// before sharing one.
pub fn unmarked_fingerprint(program: &Program) -> u64 {
    let mut hasher = std::hash::DefaultHasher::new();
    program.entry.hash(&mut hasher);
    program.procedures.len().hash(&mut hasher);
    for procedure in &program.procedures {
        procedure.entry.hash(&mut hasher);
        procedure.blocks.len().hash(&mut hasher);
        for block in &procedure.blocks {
            block.fallthrough.hash(&mut hasher);
            block.instructions.len().hash(&mut hasher);
            for inst in &block.instructions {
                // Destructured, so a new field cannot be left out.
                let Instruction {
                    opcode,
                    dest,
                    srcs,
                    imm,
                    mem,
                    branch_target,
                    call_target,
                    iq_hint: _,
                    low_energy: _,
                } = inst;
                (opcode, dest, srcs, imm, mem, branch_target, call_target).hash(&mut hasher);
            }
        }
    }
    hasher.finish()
}

/// `true` if `output` differs from `input` in nothing but the markers
/// [`Instruction::low_energy`] and [`Instruction::iq_hint`]: the same
/// procedures and blocks, the same instruction counts, and instructions
/// equal apart from those two fields. Such a program executes the same
/// path at the same addresses as its input and commits the same stream;
/// only decode reads the markers, so its plan is the input's re-marked
/// ([`ExecPlan::remark`]), and a policy that ignores hints replays it
/// exactly as the input. An inserted hint NOOP fails the check: it takes
/// a dispatch slot.
pub fn only_markers_differ(input: &Program, output: &Program) -> bool {
    input.entry == output.entry
        && input.procedures.len() == output.procedures.len()
        && input
            .procedures
            .iter()
            .zip(&output.procedures)
            .all(|(a, b)| {
                a.entry == b.entry
                    && a.blocks.len() == b.blocks.len()
                    && a.blocks.iter().zip(&b.blocks).all(|(x, y)| {
                        x.fallthrough == y.fallthrough
                            && x.instructions.len() == y.instructions.len()
                            && x.instructions
                                .iter()
                                .zip(&y.instructions)
                                .all(|(i, j)| unmarked(i) == unmarked(j))
                    })
            })
}

/// The lowering loop behind [`ExecPlan::build`] and [`ExecPlan::lower`]:
/// takes the committed instructions one at a time, in commit order, and
/// never looks at an instruction after the one it is given. It fills the
/// stream; [`ExecPlan::over`] then builds the static table and the baked
/// totals.
///
/// A taken control transfer's BTB target is the address of the next
/// committed instruction, so its BTB check waits until that instruction is
/// pushed (or [`PlanBuilder::finish`] supplies `addr + 4` for a stream
/// that ends on it). The deferred check still runs before anything the
/// next instruction touches, so the predictor sees the same sequence of
/// lookups and updates as a lowering that peeks ahead.
struct PlanBuilder<'p> {
    config: SimConfig,
    program: &'p Program,
    stream: Stream,
    // The front-end models evolve over purely static inputs, in strict
    // commit order, exactly once per site — so their full histories are
    // computed here and never touched again.
    bpred: BranchPredictor,
    l1i: Cache,
    line_bytes: u64,
    /// `log2(line_bytes)` when the line size is a power of two: the line
    /// of an address is then a shift, not a division.
    line_shift: Option<u32>,
    last_fetched_line: Option<u64>,
    // Consecutive records overwhelmingly share a basic block, so the
    // block's instruction slice is looked up only on block changes.
    cached_block: Option<(ProcId, BlockId)>,
    block_insts: &'p [Instruction],
    /// A taken control transfer still waiting for its target: its record
    /// index and address.
    pending_target: Option<(usize, u64)>,
}

impl<'p> PlanBuilder<'p> {
    /// A builder for `program` under `config`, with room reserved for
    /// `len` records.
    fn new(config: SimConfig, program: &'p Program, len: usize) -> Self {
        let slots = commit_slot(AddressMap::build(program).end());
        let mut source = program.clone();
        for procedure in &mut source.procedures {
            for block in &mut procedure.blocks {
                for inst in &mut block.instructions {
                    *inst = unmarked(inst);
                }
            }
        }
        PlanBuilder {
            config,
            program,
            stream: Stream {
                slots: Vec::with_capacity(len),
                flags: Vec::with_capacity(len),
                mem_addrs: Vec::with_capacity(len),
                imiss_addrs: Vec::new(),
                commit_counts: vec![0; slots],
                front_end: FrontEndTotals::default(),
                source,
            },
            bpred: BranchPredictor::new(config.branch),
            l1i: Cache::new(config.l1i),
            line_bytes: config.l1i.line_bytes as u64,
            line_shift: config
                .l1i
                .line_bytes
                .is_power_of_two()
                .then(|| config.l1i.line_bytes.trailing_zeros()),
            last_fetched_line: None,
            cached_block: None,
            block_insts: &[],
            pending_target: None,
        }
    }

    /// Lowers the next committed instruction.
    fn push(&mut self, dyn_inst: &DynInst) {
        if let Some((idx, from)) = self.pending_target.take() {
            self.resolve_target(idx, from, dyn_inst.addr);
        }
        let loc = dyn_inst.loc;
        if self.cached_block != Some((loc.proc, loc.block)) {
            self.block_insts = self
                .program
                .proc(loc.proc)
                .block(loc.block)
                .instructions
                .as_slice();
            self.cached_block = Some((loc.proc, loc.block));
        }
        let inst = &self.block_insts[loc.index];
        let stream = &mut self.stream;
        let idx = stream.slots.len();
        let addr = dyn_inst.addr;
        let totals = &mut stream.front_end;
        let mut flags: u8 = 0;

        // --- I-cache: one access per new cache line touched ----------------
        let line = match self.line_shift {
            Some(shift) => addr >> shift,
            None => addr / self.line_bytes,
        };
        if self.last_fetched_line != Some(line) {
            self.last_fetched_line = Some(line);
            flags |= fetch::NEW_LINE;
            if !self.l1i.access(addr) {
                flags |= fetch::L1I_MISS;
                totals.icache_misses += 1;
                stream.imiss_addrs.push(addr);
            }
        }

        // --- branch prediction ---------------------------------------------
        if inst.opcode.is_cond_branch() {
            totals.branches += 1;
            let actual_taken = dyn_inst.taken.unwrap_or(false);
            let prediction = self.bpred.predict_direction(addr);
            self.bpred.update_direction(addr, prediction, actual_taken);
            if prediction.taken != actual_taken {
                flags |= fetch::MISPREDICTED;
                totals.mispredicted_branches += 1;
            }
            if actual_taken {
                flags |= fetch::ENDS_GROUP;
                self.pending_target = Some((idx, addr));
            }
        } else if inst.opcode.is_control() {
            flags |= fetch::ENDS_GROUP;
            self.pending_target = Some((idx, addr));
        }

        // --- decode: a hint NOOP strips, everything else commits once -------
        let slot = commit_slot(addr);
        if inst.is_hint_noop() {
            totals.committed_hints += 1;
        } else {
            stream.commit_counts[slot] += 1;
        }
        stream.slots.push(slot as u32);
        stream.flags.push(flags);
        stream
            .mem_addrs
            .push(dyn_inst.mem_addr.unwrap_or(DATA_BASE));
    }

    /// The BTB check of the control transfer at record `idx` (address
    /// `from`), now that its `target` is known.
    fn resolve_target(&mut self, idx: usize, from: u64, target: u64) {
        if self.bpred.predict_target(from) != Some(target) {
            self.stream.front_end.btb_misses += 1;
            self.stream.flags[idx] |= fetch::BTB_STALL;
        }
        self.bpred.update_target(from, target);
    }

    /// Completes the plan: a final control transfer is given the
    /// fall-through address as its target, and the static table and the
    /// baked totals are built over the finished stream.
    fn finish(mut self) -> ExecPlan {
        if let Some((idx, from)) = self.pending_target.take() {
            self.resolve_target(idx, from, from + 4);
        }
        let mut stream = self.stream;
        // A streamed lowering reserved the arrays for the cap; a cached
        // stream lives until the last plan that shares it is dropped, so
        // drop the slack.
        stream.slots.shrink_to_fit();
        stream.flags.shrink_to_fit();
        stream.mem_addrs.shrink_to_fit();
        stream.imiss_addrs.shrink_to_fit();
        ExecPlan::over(self.config, self.program, Arc::new(stream))
    }
}

/// "No register" sentinel for the dense register encoding.
pub const NO_REG: u16 = u16::MAX;

/// Dense encoding of a register: `index << 1 | class` (Int = 0, Fp = 1).
/// The same scheme covers architectural registers (in the plan) and
/// physical registers (in `InFlight` and the consumer lists) — both fit
/// one `u16`, and the class is recoverable from bit 0 without touching an
/// [`ArchReg`] struct. Public so the plan lint recomputes the expected
/// encoding independently.
#[inline]
pub fn dense_arch(arch: ArchReg) -> u16 {
    let class_bit = match arch.class() {
        RegClass::Int => 0,
        RegClass::Fp => 1,
    };
    ((arch.index() as u16) << 1) | class_bit
}

/// Sets bit `index` of a ring bitmask.
fn set_bit(ring: &mut [u64], index: usize) {
    ring[index / 64] |= 1 << (index % 64);
}

/// The words of a bitmask over a ring (bit `i` in word `i / 64`, `words`
/// a power of two), each with the mask of its positions, in ring order
/// from position `start`: the start word's bits from `start` up, every
/// other word whole, wrapping at the ring's end, and last the start
/// word's bits below `start`. Set bits read in this order, lowest bit
/// first within a word, ascend in ring order from `start`, so from the
/// oldest in-flight id's position they ascend in age. A ring of 32
/// positions is one word whose upper half is never set.
fn age_ordered_words(words: usize, start: usize) -> impl Iterator<Item = (usize, u64)> {
    let (first, shift) = (start / 64, start % 64);
    std::iter::once((first, !0u64 << shift))
        .chain((1..words).map(move |step| ((first + step) & (words - 1), !0)))
        .chain((shift != 0).then_some((first, !(!0u64 << shift))))
}

/// In-flight (ROB-resident) instruction. Sources are not kept (read-port
/// totals are baked), the memory address lives in the plan, and the
/// destination registers are dense `u16`s ([`NO_REG`] = none). Dispatch
/// copies the static side issue needs (FU class, latency, load/store
/// flags) out of the plan, so issue reads it from the ring by id instead
/// of through the stream entry's slot.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    trace_idx: u32,
    /// Issue-queue slot, until the instruction issues.
    iq_slot: u32,
    dest: u16,
    /// Previous mapping of the destination architectural register,
    /// released at commit.
    prev_dest: u16,
    fu: FuClass,
    latency: u8,
    /// The record's static [`flag`]s.
    flags: u8,
    mispredicted: bool,
    /// Set at writeback; commit retires completed entries in order.
    /// (Between dispatch and writeback no stage distinguishes queued from
    /// executing, so a single bit suffices.)
    completed: bool,
    /// Ring position of the next instruction in this one's completion
    /// list ([`EventWheel`]), once it has issued.
    next_event: u32,
}

/// Filler for unoccupied ROB ring slots.
const INFLIGHT_EMPTY: InFlight = InFlight {
    trace_idx: 0,
    iq_slot: 0,
    dest: NO_REG,
    prev_dest: NO_REG,
    fu: FuClass::None,
    latency: 1,
    flags: 0,
    mispredicted: false,
    completed: false,
    next_event: NO_EVENT,
};

/// The cycle-level simulator: replays an [`ExecPlan`] through the cycle
/// loop, touching only dynamic state. Create one per run with
/// [`PlanSimulator::new`] and call [`PlanSimulator::run`].
#[derive(Debug)]
pub struct PlanSimulator<'p> {
    plan: &'p ExecPlan,
    /// The plan's static table, read through each stream entry's slot.
    statics: &'p [InstRecord],
    /// The plan's committed stream.
    stream: &'p Stream,
    uses_hints: bool,

    caches: CacheHierarchy,
    iq: PlanQueue,
    /// The integer and FP register files, indexed by the class bit of the
    /// dense register encoding (Int = 0, Fp = 1).
    rf: [RenamedRegFile; 2],
    adaptive: Option<AdaptiveController>,

    /// Fetch queue as a ring of decode-ready cycles: the queued trace
    /// indices are always the consecutive range
    /// `next_dispatch..next_fetch`, so only the per-entry ready cycle
    /// needs storing — at `fq_ready[idx & (fq_ready.len() - 1)]` (the
    /// ring is sized to the next power of two ≥ `fetch_queue_entries`, so
    /// live entries never collide; masking with the length keeps the
    /// indexing bounds-check-free).
    fq_ready: Vec<u64>,
    /// Trace index at the front of the fetch queue (next to dispatch).
    next_dispatch: usize,
    next_fetch: usize,
    fetch_stalled_until: u64,
    /// Trace index of the unresolved mispredicted branch blocking fetch.
    fetch_blocked_by: Option<usize>,
    /// `idx + 1` of the last instruction whose (precomputed) I-cache
    /// access has been performed — the resume-after-refill guard: when a
    /// miss stalls fetch mid-group, the retried instruction must not
    /// access again.
    fetch_line_done: usize,
    /// Next unconsumed entry of [`ExecPlan::imiss_addrs`].
    imiss_cursor: usize,

    /// In-flight ring, doubling as the ROB: instruction `id` lives at
    /// `rob[id as usize & (rob.len() - 1)]` (the ring is sized to the next
    /// power of two ≥ the ROB capacity, so the live id range
    /// `inflight_base..next_id` never collides; masking with the length
    /// keeps the indexing bounds-check-free). Occupancy is
    /// `next_id - inflight_base`.
    rob: Vec<InFlight>,
    inflight_base: u64,
    rob_limit: usize,
    next_id: u64,
    completions: EventWheel,
    /// Functional units per class, indexed by [`FuClass::index`].
    fu_limits: [usize; FuClass::COUNT],
    /// Ready set over the ROB ring: bit `id & (rob.len() - 1)` is set while
    /// instruction `id` waits in the issue queue with every operand ready.
    ready: Vec<u64>,
    /// Hint NOOPs stripped during the current dispatch step.
    strip_count_this_cycle: usize,

    stats: ActivityStats,
}

impl<'p> PlanSimulator<'p> {
    /// Creates a simulator replaying `plan` under `policy`.
    pub fn new(plan: &'p ExecPlan, policy: ResizePolicy) -> Self {
        let config = plan.config;
        let adaptive = match policy {
            ResizePolicy::Adaptive(cfg) => Some(AdaptiveController::new(
                cfg,
                config.iq.entries,
                config.widths.rob_capacity,
            )),
            _ => None,
        };
        // Dense register universe the consumer lists must cover
        // (`index << 1 | class`); only the adaptive policy observes age
        // ranks, so only it pays for keeping the queue's head current.
        let dense_regs = 2 * config
            .int_rf
            .regs_per_class
            .max(config.fp_rf.regs_per_class);
        let track_age = adaptive.is_some();
        let fq_len = config.fetch_queue_entries.next_power_of_two();
        let rob_len = config.widths.rob_capacity.next_power_of_two();
        let mut fu_limits = [usize::MAX; FuClass::COUNT];
        for class in FuClass::HARDWARE {
            fu_limits[class.index()] = config.fu_counts.for_class(class);
        }
        PlanSimulator {
            plan,
            statics: &plan.statics,
            stream: &plan.stream,
            uses_hints: policy.uses_hints(),
            caches: CacheHierarchy::new(&config),
            iq: PlanQueue::new(
                config.iq.entries,
                config.iq.bank_size,
                dense_regs,
                track_age,
            ),
            rf: [
                RenamedRegFile::new(config.int_rf),
                RenamedRegFile::new(config.fp_rf),
            ],
            adaptive,
            fq_ready: vec![0; fq_len],
            next_dispatch: 0,
            next_fetch: 0,
            fetch_stalled_until: 0,
            fetch_blocked_by: None,
            fetch_line_done: 0,
            imiss_cursor: 0,
            rob: vec![INFLIGHT_EMPTY; rob_len],
            inflight_base: 0,
            rob_limit: config.widths.rob_capacity,
            next_id: 0,
            completions: EventWheel::new(max_completion_latency(&config)),
            fu_limits,
            ready: vec![0; rob_len.div_ceil(64)],
            strip_count_this_cycle: 0,
            // Dynamic counters accumulate on top of the baked totals.
            stats: plan.baked.clone(),
        }
    }

    /// Ring index of in-flight instruction `id`.
    #[inline]
    fn inflight_index(&self, id: u64) -> usize {
        id as usize & (self.rob.len() - 1)
    }

    /// Current ROB occupancy.
    #[inline]
    fn inflight_len(&self) -> usize {
        (self.next_id - self.inflight_base) as usize
    }

    /// Runs the plan to completion and returns the activity counters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the pipeline stops making
    /// progress (a model bug, not an expected outcome).
    pub fn run(mut self) -> Result<SimResult, SimError> {
        let total = self.plan.len();
        let mut cycle: u64 = 0;
        let mut committed_total: usize = 0;
        let mut last_progress_cycle: u64 = 0;
        let mut last_committed: usize = 0;
        const PROGRESS_WINDOW: u64 = 100_000;

        while committed_total < total {
            // --- 1. writeback ------------------------------------------------
            let mut pos = self.completions.take_due(cycle);
            while pos != NO_EVENT {
                let next = self.rob[pos as usize].next_event;
                self.writeback(pos as usize, cycle);
                pos = next;
            }

            // --- 2. commit ----------------------------------------------------
            committed_total += self.commit();

            // --- 3. issue -----------------------------------------------------
            let observation = self.issue(cycle);

            // --- 4. dispatch --------------------------------------------------
            self.dispatch(cycle);
            committed_total += self.strip_count_this_cycle;
            self.strip_count_this_cycle = 0;

            // --- 5. fetch -----------------------------------------------------
            self.fetch(cycle);

            // --- 6. per-cycle statistics and adaptive control ------------------
            self.collect_cycle_stats();
            if let Some(controller) = self.adaptive.as_mut() {
                if let Some(decision) = controller.on_cycle(cycle, observation) {
                    self.iq.set_hard_limit(Some(decision.iq_limit));
                    self.rob_limit = decision.rob_limit;
                }
            }

            // --- progress guard ------------------------------------------------
            if committed_total > last_committed {
                last_committed = committed_total;
                last_progress_cycle = cycle;
            } else if cycle - last_progress_cycle > PROGRESS_WINDOW {
                return Err(SimError::Deadlock {
                    cycle,
                    detail: format!(
                        "committed {committed_total}/{total}, rob={} iq={} fetchq={} next_fetch={}",
                        self.inflight_len(),
                        self.iq.occupancy(),
                        self.next_fetch - self.next_dispatch,
                        self.next_fetch
                    ),
                });
            }

            cycle += 1;
        }

        self.stats.cycles = cycle.max(1);
        let (dcache_accesses, dcache_misses) = self.caches.dcache_stats();
        self.stats.dcache_accesses = dcache_accesses;
        self.stats.dcache_misses = dcache_misses;
        let adaptive_resizes = self.adaptive.as_ref().map_or(0, |a| a.resizes());
        Ok(SimResult {
            stats: self.stats,
            adaptive_resizes,
        })
    }

    /// Writes back the instruction at ROB ring position `index`.
    fn writeback(&mut self, index: usize, cycle: u64) {
        let inst = &mut self.rob[index];
        inst.completed = true;
        let (dest, mispredicted, trace_idx) =
            (inst.dest, inst.mispredicted, inst.trace_idx as usize);
        if dest != NO_REG {
            // Write the register file and broadcast into the issue queue
            // (port, broadcast and full-comparison totals are baked; the
            // non-empty/gated counts depend on the queue's dynamic
            // contents).
            self.rf[usize::from(dest & 1)].write_value_index(usize::from(dest >> 1));
            let (ready, rob_mask) = (&mut self.ready, self.rob.len() - 1);
            let (non_empty, gated) = self
                .iq
                .wakeup(dest, |id| set_bit(ready, id as usize & rob_mask));
            self.stats.wakeup_comparisons_nonempty += non_empty;
            self.stats.wakeup_comparisons_gated += gated;
        }
        if mispredicted && self.fetch_blocked_by == Some(trace_idx) {
            self.fetch_blocked_by = None;
            self.fetch_stalled_until = self
                .fetch_stalled_until
                .max(cycle + 1 + u64::from(self.plan.config.branch.mispredict_redirect_penalty));
        }
    }

    fn commit(&mut self) -> usize {
        let width = self.plan.config.widths.pipeline_width;
        let mut committed = 0;
        while committed < width && self.inflight_base < self.next_id {
            let inst = self.rob[self.inflight_base as usize & (self.rob.len() - 1)];
            if !inst.completed {
                break;
            }
            self.inflight_base += 1;
            if inst.prev_dest != NO_REG {
                self.rf[usize::from(inst.prev_dest & 1)]
                    .release_index(usize::from(inst.prev_dest >> 1));
            }
            committed += 1;
        }
        committed
    }

    fn issue(&mut self, cycle: u64) -> AdaptiveObservation {
        let issue_width = self.plan.config.widths.pipeline_width;
        let limit = self.iq.hard_limit().unwrap_or_else(|| self.iq.capacity());
        let bank_size = self.plan.config.iq.bank_size;
        let track_youngest = self.adaptive.is_some() && self.iq.occupancy() + bank_size > limit;
        let mut fu_used = [0usize; FuClass::COUNT];
        let mut issued = 0usize;
        let mut observation = AdaptiveObservation::default();

        let start = self.inflight_index(self.inflight_base);
        'walk: for (word, mask) in age_ordered_words(self.ready.len(), start) {
            // Issue clears only bits the walk has passed and sets none, so
            // one read of the word serves the whole word.
            let mut bits = self.ready[word] & mask;
            while bits != 0 {
                if issued == issue_width {
                    break 'walk;
                }
                let index = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let inst = self.rob[index];
                let class = inst.fu.index();
                if fu_used[class] >= self.fu_limits[class] {
                    continue;
                }
                fu_used[class] += 1;
                observation.issued += 1;
                if track_youngest {
                    let rank = self.iq.age_rank(inst.iq_slot as usize) + issued;
                    if rank + bank_size >= limit {
                        observation.issued_from_youngest_bank += 1;
                    }
                }
                issued += 1;

                self.ready[word] &= !(1 << (index % 64));
                self.iq.remove(inst.iq_slot as usize);

                // Execution latency (register read-port totals are baked;
                // the reads have no other observable effect).
                let latency = if inst.flags & (flag::IS_LOAD | flag::IS_STORE) != 0 {
                    let access = self
                        .caches
                        .access_data(self.stream.mem_addrs[inst.trace_idx as usize]);
                    if access.l2_miss {
                        self.stats.l2_misses += 1;
                    }
                    // Stores update the cache but retire from the
                    // pipeline's point of view after address generation.
                    if inst.flags & flag::IS_LOAD != 0 {
                        u64::from(1 + access.latency)
                    } else {
                        1
                    }
                } else {
                    u64::from(inst.latency)
                };
                self.completions
                    .schedule(&mut self.rob, cycle, cycle + latency, index as u32);
            }
        }
        observation
    }

    fn dispatch(&mut self, cycle: u64) {
        let width = self.plan.config.widths.pipeline_width;
        let rob_limit = self.rob_limit.min(self.plan.config.widths.rob_capacity);
        let mut dispatched = 0usize;
        while dispatched < width {
            if self.next_dispatch >= self.next_fetch {
                break;
            }
            let trace_idx = self.next_dispatch;
            if self.fq_ready[trace_idx & (self.fq_ready.len() - 1)] > cycle {
                break;
            }
            let rec = self.statics[self.stream.slots[trace_idx] as usize];
            let flags = rec.flags;

            // Hint handling, both shapes behind one combined-flag branch:
            // a tag on a real instruction applies at decode at no slot
            // cost; a special NOOP applies and then strips at the final
            // decode stage, consuming its dispatch slot without ever
            // entering the issue queue.
            if flags & (flag::IS_HINT | flag::HAS_HINT) != 0 {
                if self.uses_hints && flags & flag::HAS_HINT != 0 {
                    self.iq.apply_hint(rec.hint as usize);
                }
                if flags & flag::IS_HINT != 0 {
                    self.next_dispatch += 1;
                    self.strip_count_this_cycle += 1;
                    dispatched += 1;
                    continue;
                }
            }

            // Structural checks.
            if !self.iq.can_dispatch() {
                if self.iq.max_new_range().is_some() || self.iq.hard_limit().is_some() {
                    self.stats.dispatch_limit_stall_cycles += 1;
                }
                break;
            }
            if self.inflight_len() >= rob_limit {
                self.stats.rob_full_stall_cycles += 1;
                break;
            }
            let dest_arch = rec.dest;
            if dest_arch != NO_REG && !self.rf[usize::from(dest_arch & 1)].has_free() {
                self.stats.rename_stall_cycles += 1;
                break;
            }

            // Rename (class travels as bit 0 of the dense encoding).
            let srcs = rec.srcs;
            let mut ops = [NO_REG; 2];
            let mut wait = 0u8;
            for (operand, (slot, &src)) in ops.iter_mut().zip(srcs.iter()).enumerate() {
                if src != NO_REG {
                    let rf = &self.rf[usize::from(src & 1)];
                    let phys = rf.rename_source_index(usize::from(src >> 1));
                    *slot = ((phys as u16) << 1) | (src & 1);
                    wait |= u8::from(!rf.is_ready_index(phys)) << operand;
                }
            }
            let (dest, prev_dest) = if dest_arch != NO_REG {
                let (new, old) = self.rf[usize::from(dest_arch & 1)]
                    .allocate_dest_index(usize::from(dest_arch >> 1))
                    .expect("free register checked above");
                (
                    ((new as u16) << 1) | (dest_arch & 1),
                    ((old as u16) << 1) | (dest_arch & 1),
                )
            } else {
                (NO_REG, NO_REG)
            };

            let id = self.next_id;
            self.next_id += 1;
            let (slot, ready_now) = self.iq.dispatch(id, ops, wait);
            let rob_mask = self.rob.len() - 1;
            if ready_now {
                set_bit(&mut self.ready, id as usize & rob_mask);
            }
            self.rob[id as usize & rob_mask] = InFlight {
                trace_idx: trace_idx as u32,
                iq_slot: slot as u32,
                dest,
                prev_dest,
                fu: rec.fu,
                latency: rec.latency,
                flags,
                mispredicted: self.stream.flags[trace_idx] & fetch::MISPREDICTED != 0,
                completed: false,
                next_event: NO_EVENT,
            };
            self.next_dispatch += 1;
            dispatched += 1;
        }
    }

    fn fetch(&mut self, cycle: u64) {
        if self.fetch_blocked_by.is_some() || cycle < self.fetch_stalled_until {
            self.stats.fetch_stall_cycles += 1;
            return;
        }
        let width = self.plan.config.widths.pipeline_width;
        let mut fetched = 0usize;
        while fetched < width
            && self.next_fetch < self.plan.len()
            && self.next_fetch - self.next_dispatch < self.plan.config.fetch_queue_entries
        {
            let idx = self.next_fetch;
            let flags = self.stream.flags[idx];

            // I-cache: the L1i outcome is precomputed; only the shared-L2
            // part of a miss runs here. The `fetch_line_done` guard keeps
            // the access from repeating when fetch resumes on this same
            // instruction after the refill stall.
            if flags & fetch::NEW_LINE != 0 && self.fetch_line_done <= idx {
                self.fetch_line_done = idx + 1;
                if flags & fetch::L1I_MISS != 0 {
                    let addr = self.stream.imiss_addrs[self.imiss_cursor];
                    self.imiss_cursor += 1;
                    let access = self.caches.refill_instruction_after_l1i_miss(addr);
                    if access.l2_miss {
                        self.stats.l2_misses += 1;
                    }
                    // Refill stall: resume fetching this instruction after
                    // the miss is served.
                    self.fetch_stalled_until = cycle + u64::from(access.latency);
                    break;
                }
            }

            if flags & fetch::BTB_STALL != 0 {
                self.fetch_stalled_until = self.fetch_stalled_until.max(cycle + 2);
            }

            let fq_mask = self.fq_ready.len() - 1;
            self.fq_ready[idx & fq_mask] = cycle + u64::from(self.plan.config.decode_stages);
            self.next_fetch += 1;
            fetched += 1;

            if flags & fetch::MISPREDICTED != 0 {
                // Fetch cannot proceed past a mispredicted branch until it
                // resolves at writeback.
                self.fetch_blocked_by = Some(idx);
                break;
            }
            if flags & fetch::ENDS_GROUP != 0 {
                break;
            }
        }
    }

    fn collect_cycle_stats(&mut self) {
        self.stats.iq_occupancy_sum += self.iq.occupancy() as u64;
        let bank_size = self.plan.config.iq.bank_size.max(1);
        let banks_on = match self.iq.hard_limit() {
            Some(limit) => limit.div_ceil(bank_size).min(self.plan.config.iq.banks()),
            None => self.iq.banks_on(),
        };
        self.stats.iq_banks_on_sum += banks_on as u64;
        self.stats.rob_occupancy_sum += self.inflight_len() as u64;
        let [int_rf, fp_rf] = &self.rf;
        self.stats.int_rf_occupancy_sum += int_rf.occupancy() as u64;
        self.stats.int_rf_banks_on_sum += int_rf.banks_on() as u64;
        self.stats.fp_rf_occupancy_sum += fp_rf.occupancy() as u64;
        self.stats.fp_rf_banks_on_sum += fp_rf.banks_on() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{hinted_program, loop_program};
    use crate::resize::AdaptiveConfig;
    use sdiq_isa::builder::ProgramBuilder;
    use sdiq_isa::reg::int_reg;

    /// FNV-1a over a result's `Debug` rendering: every counter, the cycle
    /// count and the resize count, in one number.
    fn digest(result: &SimResult) -> u64 {
        let mut hash: u64 = 0xcbf29ce484222325;
        for byte in format!("{result:?}").bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100000001b3);
        }
        hash
    }

    /// Replays `program` under each policy and compares the result with
    /// the digest the interpreted pipeline (which this crate carried until
    /// the plan replay became its only cycle loop) computed for the same
    /// cell. After an intended model change, take the new digests from the
    /// failure message.
    fn assert_matches_interpreted(
        program: &Program,
        config: SimConfig,
        expected: &[(ResizePolicy, u64)],
    ) {
        let trace = Executor::new(program).run(200_000).unwrap();
        let plan = ExecPlan::build(config, program, &trace);
        for &(policy, interpreted) in expected {
            let result = PlanSimulator::new(&plan, policy).run().unwrap();
            assert_eq!(
                digest(&result),
                interpreted,
                "{policy:?}: digest {:#018x} of {result:?}",
                digest(&result)
            );
        }
    }

    #[test]
    fn compiled_backend_matches_interpreted_for_all_policies() {
        assert_matches_interpreted(
            &loop_program(200, 4),
            SimConfig::hpca2005(),
            &[
                (ResizePolicy::Fixed, 0x19f722ebcca8308c),
                (ResizePolicy::SoftwareHint, 0x19f722ebcca8308c),
                (
                    ResizePolicy::Adaptive(AdaptiveConfig::iqrob64()),
                    0x19f722ebcca8308c,
                ),
            ],
        );
    }

    #[test]
    fn compiled_backend_matches_interpreted_on_hinted_program() {
        assert_matches_interpreted(
            &hinted_program(),
            SimConfig::hpca2005(),
            &[
                (ResizePolicy::Fixed, 0x078d2635a29f0c3b),
                (ResizePolicy::SoftwareHint, 0xa79b48eda55e0461),
            ],
        );
    }

    #[test]
    fn compiled_backend_matches_interpreted_on_small_machine() {
        // The small configuration stresses structural stalls (ROB, rename,
        // fetch queue) far harder than Table 1.
        assert_matches_interpreted(
            &loop_program(400, 6),
            SimConfig::small_for_tests(),
            &[
                (ResizePolicy::Fixed, 0xe3b72160f3257e5d),
                (
                    ResizePolicy::Adaptive(AdaptiveConfig::iqrob64()),
                    0x4251f8e83e30e4e5,
                ),
            ],
        );
    }

    #[test]
    fn one_plan_serves_every_policy() {
        let program = hinted_program();
        let trace = Executor::new(&program).run(200_000).unwrap();
        let config = SimConfig::hpca2005();
        let plan = ExecPlan::build(config, &program, &trace);
        // The same plan instance replays under all three policies in turn
        // and still matches a plan built fresh for each policy: replay
        // leaves nothing behind in the plan.
        for policy in [
            ResizePolicy::Fixed,
            ResizePolicy::SoftwareHint,
            ResizePolicy::Adaptive(AdaptiveConfig::iqrob64()),
        ] {
            let shared = PlanSimulator::new(&plan, policy).run().unwrap();
            let fresh_plan = ExecPlan::build(config, &program, &trace);
            let fresh = PlanSimulator::new(&fresh_plan, policy).run().unwrap();
            assert_eq!(shared, fresh, "policy {policy:?}");
        }
    }

    #[test]
    fn plan_bakes_static_totals() {
        let program = hinted_program();
        let trace = Executor::new(&program).run(200_000).unwrap();
        let plan = ExecPlan::build(SimConfig::hpca2005(), &program, &trace);
        let baked = &plan.baked;
        assert_eq!(
            baked.committed + baked.committed_hints,
            trace.len() as u64,
            "every trace entry commits or strips"
        );
        assert!(baked.committed_hints >= 300, "one hint per iteration");
        assert_eq!(baked.dispatched, baked.committed);
        assert_eq!(baked.iq_writes, baked.dispatched);
        assert_eq!(baked.iq_reads, baked.issued);
        assert!(baked.branches >= 300);
        assert_eq!(plan.len(), trace.len());
        assert_eq!(plan.workload(), program.name);
        let counts = plan.commit_counts();
        assert_eq!(
            counts.iter().map(|&c| u64::from(c)).sum::<u64>(),
            baked.committed
        );
        assert_eq!(
            low_energy_commits(&program, counts),
            baked.committed_low_energy
        );
    }

    /// A stream cut right after a control transfer gives the transfer the
    /// fall-through address, `addr + 4`, as its BTB target. Here the jump
    /// really goes to the next block, laid out at `addr + 4`, so the cut
    /// plan is a prefix of the full one: the BTB entry trained on the
    /// first trip hits.
    #[test]
    fn a_stream_cut_after_a_transfer_targets_the_next_address() {
        let mut b = ProgramBuilder::new();
        let main = b.procedure("main");
        {
            let p = b.proc_mut(main);
            let entry = p.block();
            let body = p.block();
            let next = p.block();
            let exit = p.block();
            p.with_block(entry, |bb| {
                bb.li(int_reg(1), 0);
                bb.jump(body);
            });
            p.with_block(body, |bb| {
                bb.addi(int_reg(1), int_reg(1), 1);
                bb.jump(next);
            });
            p.with_block(next, |bb| {
                bb.blt(int_reg(1), 3, body, exit);
            });
            p.with_block(exit, |bb| {
                bb.ret();
            });
            p.set_entry(entry);
        }
        let program = b.finish(main).unwrap();
        let config = SimConfig::hpca2005();
        let full = ExecPlan::lower(config, &program, 200).unwrap();
        // li, jump, addi, jump, blt, addi, jump: the cut ends on the
        // second trip's jump to `next`.
        let cut = ExecPlan::lower(config, &program, 7).unwrap();
        let last = cut.fetch_flags()[6];
        assert_ne!(last & fetch::ENDS_GROUP, 0, "the last record is the jump");
        assert_eq!(last & fetch::BTB_STALL, 0, "its trained BTB entry hits");
        assert_eq!(cut.slots(), &full.slots()[..7]);
        assert_eq!(cut.fetch_flags(), &full.fetch_flags()[..7]);
        assert_eq!(cut.mem_addrs(), &full.mem_addrs()[..7]);
        assert_eq!(cut.statics(), full.statics());
    }

    /// `program` with a tag on every second instruction that is not a hint
    /// NOOP and the low-energy mark on every third: the markers differ,
    /// nothing else does.
    fn remarked_copy(program: &Program) -> Program {
        let mut tagged = program.clone();
        let mut count = 0u8;
        for procedure in &mut tagged.procedures {
            for block in &mut procedure.blocks {
                for inst in &mut block.instructions {
                    count = count.wrapping_add(1);
                    if !inst.is_hint_noop() && count.is_multiple_of(2) {
                        inst.iq_hint = Some(2 + count % 8);
                    }
                    inst.low_energy = count.is_multiple_of(3);
                }
            }
        }
        tagged
    }

    #[test]
    fn a_remark_shares_the_stream_and_equals_a_lowering() {
        let config = SimConfig::hpca2005();
        for program in [loop_program(300, 4), hinted_program()] {
            let tagged = remarked_copy(&program);
            let raw = ExecPlan::lower(config, &program, 200_000).unwrap();
            let remarked = raw
                .remark(config, &tagged)
                .expect("only the markers differ");
            assert!(remarked.shares_stream(&raw));
            let lowered = ExecPlan::lower(config, &tagged, 200_000).unwrap();
            assert!(
                !lowered.shares_stream(&raw),
                "a lowering has its own stream"
            );
            assert!(remarked == lowered, "{}: re-mark ≠ lowering", program.name);
            assert!(remarked.baked_stats().committed_low_energy > 0);
            assert_ne!(remarked.statics(), raw.statics());
            for policy in [ResizePolicy::Fixed, ResizePolicy::SoftwareHint] {
                assert_eq!(
                    PlanSimulator::new(&remarked, policy).run(),
                    PlanSimulator::new(&lowered, policy).run(),
                    "{policy:?}"
                );
            }
            // Clearing the markers again gives back the raw plan.
            assert!(remarked.remark(config, &program).expect("markers only") == raw);
        }
    }

    /// A plan re-marked onto another back end (a smaller queue, smaller
    /// banks, a narrower machine with its own register files and data
    /// caches, all behind Table 1's front end) equals the plan lowered on
    /// that machine, and replays like it. Another front end is refused.
    #[test]
    fn a_remark_onto_another_back_end_equals_a_lowering_there() {
        let base = SimConfig::hpca2005();
        let mut small_queue = base;
        small_queue.iq.entries = 32;
        small_queue.widths.iq_capacity = 32;
        let mut small_banks = base;
        small_banks.iq.bank_size = 4;
        let narrow = SimConfig {
            branch: base.branch,
            l1i: base.l1i,
            ..SimConfig::small_for_tests()
        };
        for program in [loop_program(300, 4), hinted_program()] {
            let tagged = remarked_copy(&program);
            let raw = ExecPlan::lower(base, &program, 200_000).unwrap();
            for config in [small_queue, small_banks, narrow] {
                for target in [&program, &tagged] {
                    let remarked = raw.remark(config, target).expect("same front end");
                    assert!(remarked.shares_stream(&raw));
                    let lowered = ExecPlan::lower(config, target, 200_000).unwrap();
                    assert!(remarked == lowered, "{}: re-mark ≠ lowering", program.name);
                    assert_eq!(
                        PlanSimulator::new(&remarked, ResizePolicy::SoftwareHint).run(),
                        PlanSimulator::new(&lowered, ResizePolicy::SoftwareHint).run()
                    );
                }
            }
            let other_front_end = SimConfig::small_for_tests();
            assert!(!raw.can_remark(&other_front_end, &program));
            assert!(raw.remark(other_front_end, &program).is_none());
        }
    }

    /// The fingerprint ignores the markers and nothing else.
    #[test]
    fn the_unmarked_fingerprint_ignores_exactly_the_markers() {
        let program = loop_program(300, 4);
        let tagged = remarked_copy(&program);
        assert_eq!(
            unmarked_fingerprint(&program),
            unmarked_fingerprint(&tagged)
        );
        let mut moved = program.clone();
        let inst = moved.procedures[0].blocks[1]
            .instructions
            .iter_mut()
            .find(|inst| inst.imm.is_some())
            .expect("the body has an addi");
        inst.imm = inst.imm.map(|imm| imm + 1);
        assert_ne!(unmarked_fingerprint(&program), unmarked_fingerprint(&moved));
    }

    #[test]
    fn a_remark_refuses_a_program_that_differs_in_more_than_markers() {
        let program = loop_program(300, 4);
        let config = SimConfig::hpca2005();
        let raw = ExecPlan::lower(config, &program, 200_000).unwrap();
        assert!(raw.can_remark(&config, &program));
        let body = &program.procedures[0].blocks[1];
        // A hint NOOP inserted at the top of the loop body.
        let mut inserted = program.clone();
        let mut hint = Instruction::new(sdiq_isa::Opcode::HintNoop);
        hint.iq_hint = Some(4);
        inserted.procedures[0].blocks[1]
            .instructions
            .insert(0, hint);
        // Another immediate on the first instruction that has one.
        let mut retargeted = program.clone();
        let site = body
            .instructions
            .iter()
            .position(|inst| inst.imm.is_some())
            .expect("the body has an addi");
        let inst = &mut retargeted.procedures[0].blocks[1].instructions[site];
        inst.imm = inst.imm.map(|imm| imm + 1);
        // The loop body's fall-through moved.
        let mut rewired = program.clone();
        rewired.procedures[0].blocks[1].fallthrough = None;
        for (what, other) in [
            ("an inserted hint NOOP", inserted),
            ("another immediate", retargeted),
            ("another fall-through", rewired),
        ] {
            assert!(!raw.can_remark(&config, &other), "{what}");
            assert!(raw.remark(config, &other).is_none(), "{what}");
        }
    }

    /// Slot, fetch flags and memory address: 13 bytes per committed
    /// instruction, plus the miss list and the per-address counts (the
    /// stream's program is per program, not per record). The static table
    /// takes 10 bytes per instruction address.
    #[test]
    fn the_stream_holds_at_most_14_heap_bytes_per_record() {
        use std::mem::size_of_val;
        assert_eq!(std::mem::size_of::<InstRecord>(), 10);
        let program = loop_program(4000, 4);
        let raw = ExecPlan::lower(SimConfig::hpca2005(), &program, 200_000).unwrap();
        assert!(raw.len() > 30_000, "{} records", raw.len());
        let stream = &*raw.stream;
        // Lowering shrinks every array to its length.
        for (capacity, len) in [
            (stream.slots.capacity(), stream.slots.len()),
            (stream.flags.capacity(), stream.flags.len()),
            (stream.mem_addrs.capacity(), stream.mem_addrs.len()),
            (stream.imiss_addrs.capacity(), stream.imiss_addrs.len()),
        ] {
            assert_eq!(capacity, len);
        }
        let bytes = size_of_val(raw.slots())
            + size_of_val(raw.fetch_flags())
            + size_of_val(raw.mem_addrs())
            + size_of_val(raw.imiss_addrs())
            + size_of_val(raw.commit_counts());
        let per_record = bytes as f64 / raw.len() as f64;
        assert!(per_record <= 14.0, "{per_record:.2} bytes per record");
        let remarked = raw.remark(*raw.config(), &remarked_copy(&program)).unwrap();
        assert!(remarked.shares_stream(&raw), "the re-mark adds no stream");
    }

    /// The ids issue's walk reads, in order, from a ROB ring of `len`
    /// positions whose oldest in-flight id is `base`.
    fn walk_ready(ring: &[u64], len: usize, base: u64) -> Vec<u64> {
        let start = base as usize & (len - 1);
        let mut ids = Vec::new();
        for (word, mask) in age_ordered_words(ring.len(), start) {
            let mut bits = ring[word] & mask;
            while bits != 0 {
                let index = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                ids.push(base + ((index + len - start) & (len - 1)) as u64);
            }
        }
        ids
    }

    #[test]
    fn the_ready_walk_wraps_past_the_ring_end_in_age_order() {
        // The 32-entry ROB of the small machine, oldest id at position 30.
        let mut ring = vec![0u64; 1];
        for id in [33u64, 30, 61, 31] {
            set_bit(&mut ring, id as usize & 31);
        }
        assert_eq!(walk_ready(&ring, 32, 30), vec![30, 31, 33, 61]);
        assert_eq!(walk_ready(&[0, 0], 128, 7), Vec::<u64>::new());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random ready sets on rings of 32 (the small machine's ROB), 128
        /// (Table 1's) and 256 positions, from random oldest ids, so sets
        /// wrap past the ring's end: the walk yields exactly the ready ids,
        /// ascending.
        #[test]
        fn the_ready_walk_yields_exactly_the_ready_ids_ascending(
            ring_size in 0usize..3,
            base in 0u64..1_000_000,
            in_flight in 0usize..257,
            picks in proptest::prelude::prop::collection::vec(0usize..256, 0..80),
        ) {
            let len = [32, 128, 256][ring_size];
            let in_flight = in_flight % (len + 1);
            let mut ring = vec![0u64; len.div_ceil(64)];
            let mut ready: Vec<u64> = Vec::new();
            if in_flight > 0 {
                for pick in picks {
                    let id = base + (pick % in_flight) as u64;
                    set_bit(&mut ring, id as usize & (len - 1));
                    ready.push(id);
                }
            }
            ready.sort_unstable();
            ready.dedup();
            proptest::prop_assert_eq!(walk_ready(&ring, len, base), ready);
        }
    }

    #[test]
    fn empty_trace_runs_to_a_single_cycle() {
        let program = loop_program(1, 1);
        let trace = Executor::new(&program).run(200_000).unwrap();
        let plan = ExecPlan::build(SimConfig::hpca2005(), &program, &trace);
        let result = PlanSimulator::new(&plan, ResizePolicy::Fixed)
            .run()
            .unwrap();
        assert!(result.stats.cycles >= 1);
    }
}
