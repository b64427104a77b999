//! Functional executor.
//!
//! The timing simulator in `sdiq-sim` is trace-driven: the architecturally
//! correct (committed) path is produced here by executing the program's
//! semantics — register arithmetic, memory, branch outcomes, calls and
//! returns — and the timing model then replays it cycle by cycle, adding
//! speculation, queuing and resource effects on top. This mirrors how
//! SimpleScalar's `sim-outorder` separates functional from timing simulation.
//!
//! [`Executor::stream`] is the one execution loop: it hands each committed
//! [`DynInst`] to a consumer as it commits. The simulator lowers its
//! execution plan straight from that stream, so a production run never
//! holds the whole committed path in memory; [`Executor::run`] is the same
//! loop collecting a [`Trace`], for the plan lint's `repro lint` walk, the
//! tests and the layer benchmark.

use crate::inst::Instruction;
use crate::opcode::Opcode;
use crate::program::{AddressMap, BlockId, InstrLoc, ProcId, Program};
use crate::reg::{ArchReg, RegClass, NUM_ARCH_FP_REGS, NUM_ARCH_INT_REGS};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Maximum call-stack depth before the executor reports an error.
pub const MAX_CALL_DEPTH: usize = 4096;

/// Base address of the data segment used for default memory contents.
pub const DATA_BASE: u64 = 0x1000_0000;

/// One committed dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DynInst {
    /// Dynamic sequence number (0-based commit order).
    pub seq: u64,
    /// Static instruction this instance came from.
    pub loc: InstrLoc,
    /// Instruction address (PC).
    pub addr: u64,
    /// Effective address for loads and stores.
    pub mem_addr: Option<u64>,
    /// For conditional branches: whether the branch was taken.
    pub taken: Option<bool>,
}

/// The committed dynamic instruction trace of a program execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Committed instructions in program order.
    pub committed: Vec<DynInst>,
    /// `true` if execution stopped because the dynamic instruction cap was
    /// reached rather than because the program returned from its entry
    /// procedure. Both are normal for the experiments (the paper simulates a
    /// 100M-instruction sample of much longer programs).
    pub hit_cap: bool,
    /// Number of conditional branches in the trace.
    pub cond_branches: u64,
    /// Number of taken conditional branches.
    pub taken_branches: u64,
    /// Number of memory operations in the trace.
    pub mem_ops: u64,
}

impl Trace {
    /// Number of committed dynamic instructions.
    pub fn len(&self) -> usize {
        self.committed.len()
    }

    /// `true` if nothing was committed.
    pub fn is_empty(&self) -> bool {
        self.committed.is_empty()
    }

    /// Fraction of conditional branches that were taken.
    pub fn taken_ratio(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            self.taken_branches as f64 / self.cond_branches as f64
        }
    }
}

/// Errors the functional executor can report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecError {
    /// The call stack exceeded [`MAX_CALL_DEPTH`] frames.
    CallStackOverflow {
        /// Procedure whose call overflowed the stack.
        at: ProcId,
    },
    /// The program is structurally invalid (should have been caught by
    /// [`Program::validate`], reported defensively).
    Malformed(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::CallStackOverflow { at } => {
                write!(f, "call stack exceeded {MAX_CALL_DEPTH} frames at {at}")
            }
            ExecError::Malformed(msg) => write!(f, "malformed program: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

#[derive(Debug, Clone, Copy)]
struct Frame {
    proc: ProcId,
    return_block: BlockId,
}

/// Deterministic default memory contents: a splitmix64-style hash of the
/// address. Uninitialised loads therefore return reproducible pseudo-random
/// values, which gives data-dependent branches and pointer-chasing workloads
/// stable behaviour across runs.
fn default_memory_value(addr: u64) -> i64 {
    let mut z = addr.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as i64
}

/// The functional executor.
///
/// See the [module documentation](self) for the role it plays. The executor
/// borrows the program; its register and memory state live inside it so a
/// single executor can only run once (create a new one per run).
#[derive(Debug)]
pub struct Executor<'a> {
    program: &'a Program,
    addr_map: AddressMap,
    int_regs: [i64; NUM_ARCH_INT_REGS as usize],
    fp_regs: [f64; NUM_ARCH_FP_REGS as usize],
    memory: HashMap<u64, i64>,
    call_stack: Vec<Frame>,
}

impl<'a> Executor<'a> {
    /// Creates an executor for `program` with zeroed registers and
    /// hash-initialised memory.
    pub fn new(program: &'a Program) -> Self {
        Executor {
            program,
            addr_map: AddressMap::build(program),
            int_regs: [0; NUM_ARCH_INT_REGS as usize],
            fp_regs: [0.0; NUM_ARCH_FP_REGS as usize],
            memory: HashMap::new(),
            call_stack: Vec::new(),
        }
    }

    /// Pre-initialises a memory word (useful for tests and workloads that
    /// need specific data).
    pub fn poke(&mut self, addr: u64, value: i64) {
        self.memory.insert(addr, value);
    }

    /// Reads a memory word as the program would see it.
    pub fn peek(&self, addr: u64) -> i64 {
        *self
            .memory
            .get(&addr)
            .unwrap_or(&default_memory_value(addr))
    }

    /// The address map built for the program (shared with the timing
    /// simulator so both agree on instruction addresses).
    pub fn addr_map(&self) -> &AddressMap {
        &self.addr_map
    }

    fn read_int(&self, reg: ArchReg) -> i64 {
        debug_assert_eq!(reg.class(), RegClass::Int);
        self.int_regs[reg.index() as usize]
    }

    fn write_int(&mut self, reg: ArchReg, value: i64) {
        debug_assert_eq!(reg.class(), RegClass::Int);
        self.int_regs[reg.index() as usize] = value;
    }

    fn read_fp(&self, reg: ArchReg) -> f64 {
        debug_assert_eq!(reg.class(), RegClass::Fp);
        self.fp_regs[reg.index() as usize]
    }

    fn write_fp(&mut self, reg: ArchReg, value: f64) {
        debug_assert_eq!(reg.class(), RegClass::Fp);
        self.fp_regs[reg.index() as usize] = value;
    }

    fn mem_load(&mut self, addr: u64) -> i64 {
        *self
            .memory
            .entry(addr)
            .or_insert_with(|| default_memory_value(addr))
    }

    fn mem_store(&mut self, addr: u64, value: i64) {
        self.memory.insert(addr, value);
    }

    /// Second comparison operand of a branch / ALU op: the second source
    /// register if present, otherwise the immediate.
    fn second_operand(&self, inst: &Instruction) -> i64 {
        if let Some(r) = inst.srcs[1] {
            self.read_int(r)
        } else {
            inst.imm.unwrap_or(0)
        }
    }

    fn branch_taken(&self, inst: &Instruction) -> bool {
        let a = self.read_int(inst.srcs[0].expect("branch has a source"));
        let b = self.second_operand(inst);
        match inst.opcode {
            Opcode::Beq => a == b,
            Opcode::Bne => a != b,
            Opcode::Blt => a < b,
            Opcode::Bge => a >= b,
            Opcode::Bgt => a > b,
            Opcode::Ble => a <= b,
            other => unreachable!("branch_taken on non-branch opcode {other}"),
        }
    }

    /// Executes one non-control instruction, updating state and returning
    /// the effective memory address if it was a memory operation.
    fn execute_data(&mut self, inst: &Instruction) -> Option<u64> {
        use Opcode::*;
        match inst.opcode {
            Li => {
                self.write_int(inst.dest.unwrap(), inst.imm.unwrap());
            }
            Mov => {
                let v = self.read_int(inst.srcs[0].unwrap());
                self.write_int(inst.dest.unwrap(), v);
            }
            Add | Addi => {
                let a = self.read_int(inst.srcs[0].unwrap());
                let b = self.second_operand(inst);
                self.write_int(inst.dest.unwrap(), a.wrapping_add(b));
            }
            Sub | Subi => {
                let a = self.read_int(inst.srcs[0].unwrap());
                let b = self.second_operand(inst);
                self.write_int(inst.dest.unwrap(), a.wrapping_sub(b));
            }
            Mul => {
                let a = self.read_int(inst.srcs[0].unwrap());
                let b = self.read_int(inst.srcs[1].unwrap());
                self.write_int(inst.dest.unwrap(), a.wrapping_mul(b));
            }
            Div => {
                let a = self.read_int(inst.srcs[0].unwrap());
                let b = self.read_int(inst.srcs[1].unwrap());
                self.write_int(
                    inst.dest.unwrap(),
                    if b == 0 { 0 } else { a.wrapping_div(b) },
                );
            }
            And => {
                let a = self.read_int(inst.srcs[0].unwrap());
                let b = self.read_int(inst.srcs[1].unwrap());
                self.write_int(inst.dest.unwrap(), a & b);
            }
            Or => {
                let a = self.read_int(inst.srcs[0].unwrap());
                let b = self.read_int(inst.srcs[1].unwrap());
                self.write_int(inst.dest.unwrap(), a | b);
            }
            Xor => {
                let a = self.read_int(inst.srcs[0].unwrap());
                let b = self.read_int(inst.srcs[1].unwrap());
                self.write_int(inst.dest.unwrap(), a ^ b);
            }
            Shl => {
                let a = self.read_int(inst.srcs[0].unwrap());
                let b = self.read_int(inst.srcs[1].unwrap());
                self.write_int(inst.dest.unwrap(), a.wrapping_shl((b & 63) as u32));
            }
            Shr => {
                let a = self.read_int(inst.srcs[0].unwrap());
                let b = self.read_int(inst.srcs[1].unwrap());
                self.write_int(inst.dest.unwrap(), a.wrapping_shr((b & 63) as u32));
            }
            Slt => {
                let a = self.read_int(inst.srcs[0].unwrap());
                let b = self.read_int(inst.srcs[1].unwrap());
                self.write_int(inst.dest.unwrap(), i64::from(a < b));
            }
            Slti => {
                let a = self.read_int(inst.srcs[0].unwrap());
                let b = inst.imm.unwrap();
                self.write_int(inst.dest.unwrap(), i64::from(a < b));
            }
            Load => {
                let m = inst.mem.unwrap();
                let addr = (self.read_int(m.base).wrapping_add(m.offset)) as u64;
                let v = self.mem_load(addr);
                self.write_int(inst.dest.unwrap(), v);
                return Some(addr);
            }
            Store => {
                let m = inst.mem.unwrap();
                let addr = (self.read_int(m.base).wrapping_add(m.offset)) as u64;
                let v = self.read_int(inst.srcs[1].unwrap());
                self.mem_store(addr, v);
                return Some(addr);
            }
            FLoad => {
                let m = inst.mem.unwrap();
                let addr = (self.read_int(m.base).wrapping_add(m.offset)) as u64;
                let v = self.mem_load(addr);
                self.write_fp(inst.dest.unwrap(), v as f64);
                return Some(addr);
            }
            FStore => {
                let m = inst.mem.unwrap();
                let addr = (self.read_int(m.base).wrapping_add(m.offset)) as u64;
                let v = self.read_fp(inst.srcs[1].unwrap());
                self.mem_store(addr, v as i64);
                return Some(addr);
            }
            FAdd => {
                let a = self.read_fp(inst.srcs[0].unwrap());
                let b = self.read_fp(inst.srcs[1].unwrap());
                self.write_fp(inst.dest.unwrap(), a + b);
            }
            FSub => {
                let a = self.read_fp(inst.srcs[0].unwrap());
                let b = self.read_fp(inst.srcs[1].unwrap());
                self.write_fp(inst.dest.unwrap(), a - b);
            }
            FMul => {
                let a = self.read_fp(inst.srcs[0].unwrap());
                let b = self.read_fp(inst.srcs[1].unwrap());
                self.write_fp(inst.dest.unwrap(), a * b);
            }
            FDiv => {
                let a = self.read_fp(inst.srcs[0].unwrap());
                let b = self.read_fp(inst.srcs[1].unwrap());
                self.write_fp(inst.dest.unwrap(), if b == 0.0 { 0.0 } else { a / b });
            }
            FMov => {
                let v = self.read_fp(inst.srcs[0].unwrap());
                self.write_fp(inst.dest.unwrap(), v);
            }
            ItoF => {
                let v = self.read_int(inst.srcs[0].unwrap());
                self.write_fp(inst.dest.unwrap(), v as f64);
            }
            FtoI => {
                let v = self.read_fp(inst.srcs[0].unwrap());
                let clamped = if v.is_finite() {
                    v.clamp(i64::MIN as f64, i64::MAX as f64) as i64
                } else {
                    0
                };
                self.write_int(inst.dest.unwrap(), clamped);
            }
            Nop | HintNoop => {}
            Beq | Bne | Blt | Bge | Bgt | Ble | Jump | Call | Return => {
                unreachable!("control flow handled by the main loop")
            }
        }
        None
    }

    /// Runs the program from its entry point for at most `max_insts` dynamic
    /// instructions and returns the committed trace: [`Executor::stream`]
    /// with every record collected.
    ///
    /// # Errors
    ///
    /// As [`Executor::stream`].
    pub fn run(self, max_insts: u64) -> Result<Trace, ExecError> {
        let mut committed = Vec::new();
        let summary = self.stream(max_insts, |record| committed.push(record))?;
        Ok(Trace {
            committed,
            hit_cap: summary.hit_cap,
            cond_branches: summary.cond_branches,
            taken_branches: summary.taken_branches,
            mem_ops: summary.mem_ops,
        })
    }

    /// Runs the program from its entry point for at most `max_insts` dynamic
    /// instructions, handing each committed instruction to `consume` in
    /// commit order the moment it commits. Nothing is collected, so a
    /// consumer that keeps only what it needs (the simulator's plan
    /// lowering, the plan lint) never pays for a [`Trace`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::CallStackOverflow`] if the program recurses more
    /// than [`MAX_CALL_DEPTH`] deep, or [`ExecError::Malformed`] if an
    /// instruction references state a validated program cannot reference.
    /// Records committed before the fault have already been consumed.
    pub fn stream(
        mut self,
        max_insts: u64,
        mut consume: impl FnMut(DynInst),
    ) -> Result<RunSummary, ExecError> {
        let mut summary = RunSummary::default();
        // Instructions are borrowed from the program, not from `self`, so
        // the data path can update registers and memory without a copy.
        let program = self.program;

        let mut proc_id = program.entry;
        let mut block_id = program.proc(proc_id).entry;
        let mut index = 0usize;
        let mut seq = 0u64;

        'outer: loop {
            if seq >= max_insts {
                summary.hit_cap = true;
                break;
            }
            let proc = program.proc(proc_id);
            let block = proc.block(block_id);
            if index >= block.instructions.len() {
                // Fell off the end of a block without a terminator: follow the
                // fall-through edge (validation guarantees it exists).
                match block.fallthrough {
                    Some(next) => {
                        block_id = next;
                        index = 0;
                        continue;
                    }
                    None => {
                        return Err(ExecError::Malformed(format!(
                            "{proc_id}:{block_id} has no terminator and no fall-through"
                        )));
                    }
                }
            }

            let loc = InstrLoc {
                proc: proc_id,
                block: block_id,
                index,
            };
            let inst = &block.instructions[index];
            let addr = self.addr_map.addr_of(loc);
            let opcode = inst.opcode;

            let mut record = DynInst {
                seq,
                loc,
                addr,
                mem_addr: None,
                taken: None,
            };

            if opcode.is_control() {
                match opcode {
                    Opcode::Jump => {
                        block_id = inst.branch_target.expect("validated jump target");
                        index = 0;
                    }
                    Opcode::Call => {
                        let callee = inst.call_target.expect("validated call target");
                        let return_block = block.fallthrough.expect("validated call fall-through");
                        if self.call_stack.len() >= MAX_CALL_DEPTH {
                            return Err(ExecError::CallStackOverflow { at: proc_id });
                        }
                        self.call_stack.push(Frame {
                            proc: proc_id,
                            return_block,
                        });
                        proc_id = callee;
                        block_id = program.proc(callee).entry;
                        index = 0;
                    }
                    Opcode::Return => match self.call_stack.pop() {
                        Some(frame) => {
                            proc_id = frame.proc;
                            block_id = frame.return_block;
                            index = 0;
                        }
                        None => {
                            // Returning from the entry procedure ends the program.
                            consume(record);
                            break 'outer;
                        }
                    },
                    _ => {
                        // Conditional branch.
                        let taken = self.branch_taken(inst);
                        record.taken = Some(taken);
                        summary.cond_branches += 1;
                        if taken {
                            summary.taken_branches += 1;
                            block_id = inst.branch_target.expect("validated branch target");
                        } else {
                            block_id = block.fallthrough.expect("validated branch fall-through");
                        }
                        index = 0;
                    }
                }
            } else {
                record.mem_addr = self.execute_data(inst);
                if record.mem_addr.is_some() {
                    summary.mem_ops += 1;
                }
                index += 1;
            }

            consume(record);
            seq += 1;
        }

        Ok(summary)
    }
}

/// What a streamed run reports besides the records it handed out: the
/// [`Trace`] fields other than the committed list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// `true` if execution stopped at the dynamic instruction cap (see
    /// [`Trace::hit_cap`]).
    pub hit_cap: bool,
    /// Number of conditional branches committed.
    pub cond_branches: u64,
    /// Number of taken conditional branches.
    pub taken_branches: u64,
    /// Number of memory operations committed.
    pub mem_ops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::reg::{fp_reg, int_reg};

    /// A counted loop running `trips` iterations with `body_insts` ALU
    /// instructions per iteration.
    fn counted_loop(trips: i64, body_insts: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.procedure("main");
        {
            let p = b.proc_mut(main);
            let entry = p.block();
            let body = p.block();
            let exit = p.block();
            p.with_block(entry, |bb| {
                bb.li(int_reg(1), 0);
                bb.jump(body);
            });
            p.with_block(body, |bb| {
                for k in 0..body_insts {
                    bb.addi(int_reg(2 + (k % 8) as u8), int_reg(1), k as i64);
                }
                bb.addi(int_reg(1), int_reg(1), 1);
                bb.blt(int_reg(1), trips, body, exit);
            });
            p.with_block(exit, |bb| {
                bb.ret();
            });
            p.set_entry(entry);
        }
        b.finish(main).unwrap()
    }

    #[test]
    fn counted_loop_executes_exact_trip_count() {
        let trips = 25;
        let body = 4;
        let program = counted_loop(trips, body);
        let trace = Executor::new(&program).run(1_000_000).unwrap();
        assert!(!trace.hit_cap);
        // entry: li + jump; per-iteration: body + addi + branch; exit: ret.
        let expected = 2 + (body as u64 + 2) * trips as u64 + 1;
        assert_eq!(trace.len() as u64, expected);
        assert_eq!(trace.cond_branches, trips as u64);
        assert_eq!(trace.taken_branches, trips as u64 - 1);
    }

    #[test]
    fn execution_is_deterministic() {
        let program = counted_loop(13, 3);
        let t1 = Executor::new(&program).run(100_000).unwrap();
        let t2 = Executor::new(&program).run(100_000).unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn streamed_records_are_the_collected_trace() {
        let program = counted_loop(13, 3);
        for cap in [40, 100_000] {
            let trace = Executor::new(&program).run(cap).unwrap();
            let mut streamed = Vec::new();
            let summary = Executor::new(&program)
                .stream(cap, |record| streamed.push(record))
                .unwrap();
            assert_eq!(streamed, trace.committed);
            assert_eq!(
                summary,
                RunSummary {
                    hit_cap: trace.hit_cap,
                    cond_branches: trace.cond_branches,
                    taken_branches: trace.taken_branches,
                    mem_ops: trace.mem_ops,
                }
            );
            assert_eq!(summary.hit_cap, cap == 40);
        }
    }

    #[test]
    fn cap_stops_execution_cleanly() {
        let program = counted_loop(1_000_000, 2);
        let trace = Executor::new(&program).run(500).unwrap();
        assert!(trace.hit_cap);
        assert_eq!(trace.len(), 500);
    }

    #[test]
    fn memory_store_then_load_roundtrips() {
        let mut b = ProgramBuilder::new();
        let main = b.procedure("main");
        {
            let p = b.proc_mut(main);
            let entry = p.block();
            p.with_block(entry, |bb| {
                bb.li(int_reg(1), 0x2000);
                bb.li(int_reg(2), 42);
                bb.store(int_reg(2), int_reg(1), 8);
                bb.load(int_reg(3), int_reg(1), 8);
                bb.addi(int_reg(4), int_reg(3), 1);
                bb.ret();
            });
            p.set_entry(entry);
        }
        let program = b.finish(main).unwrap();
        let trace = Executor::new(&program).run(100).unwrap();
        assert!(!trace.hit_cap);
        assert_eq!(trace.mem_ops, 2);
        // The load and store share an effective address.
        let addrs: Vec<_> = trace.committed.iter().filter_map(|d| d.mem_addr).collect();
        assert_eq!(addrs.len(), 2);
        assert_eq!(addrs[0], addrs[1]);
        assert_eq!(addrs[0], 0x2008);
    }

    #[test]
    fn uninitialised_loads_are_deterministic() {
        assert_eq!(default_memory_value(0x1234), default_memory_value(0x1234));
        assert_ne!(default_memory_value(0x1234), default_memory_value(0x1238));
    }

    #[test]
    fn calls_and_returns_nest_properly() {
        let mut b = ProgramBuilder::new();
        let leaf = b.procedure("leaf");
        {
            let p = b.proc_mut(leaf);
            let entry = p.block();
            p.with_block(entry, |bb| {
                bb.addi(int_reg(5), int_reg(5), 1);
                bb.ret();
            });
            p.set_entry(entry);
        }
        let mid = b.procedure("mid");
        {
            let p = b.proc_mut(mid);
            let b0 = p.block();
            let b1 = p.block();
            p.with_block(b0, |bb| {
                bb.call(leaf, b1);
            });
            p.with_block(b1, |bb| {
                bb.addi(int_reg(6), int_reg(6), 1);
                bb.ret();
            });
            p.set_entry(b0);
        }
        let main = b.procedure("main");
        {
            let p = b.proc_mut(main);
            let b0 = p.block();
            let b1 = p.block();
            p.with_block(b0, |bb| {
                bb.call(mid, b1);
            });
            p.with_block(b1, |bb| {
                bb.ret();
            });
            p.set_entry(b0);
        }
        let program = b.finish(main).unwrap();
        let trace = Executor::new(&program).run(1000).unwrap();
        assert!(!trace.hit_cap);
        // call mid, call leaf, addi, ret, addi, ret, ret = 7 dynamic instructions.
        assert_eq!(trace.len(), 7);
    }

    #[test]
    fn infinite_recursion_reports_stack_overflow() {
        let mut b = ProgramBuilder::new();
        let rec = b.procedure("rec");
        {
            let p = b.proc_mut(rec);
            let b0 = p.block();
            let b1 = p.block();
            p.with_block(b0, |bb| {
                bb.call(rec, b1);
            });
            p.with_block(b1, |bb| {
                bb.ret();
            });
            p.set_entry(b0);
        }
        let program = b.finish(rec).unwrap();
        let err = Executor::new(&program).run(1_000_000).unwrap_err();
        assert!(matches!(err, ExecError::CallStackOverflow { .. }));
    }

    #[test]
    fn fp_pipeline_produces_sane_results() {
        let mut b = ProgramBuilder::new();
        let main = b.procedure("main");
        {
            let p = b.proc_mut(main);
            let entry = p.block();
            p.with_block(entry, |bb| {
                bb.li(int_reg(1), 7);
                bb.itof(fp_reg(0), int_reg(1));
                bb.fmul(fp_reg(1), fp_reg(0), fp_reg(0));
                bb.fadd(fp_reg(2), fp_reg(1), fp_reg(0));
                bb.ftoi(int_reg(2), fp_reg(2));
                // 7*7 + 7 = 56 > 50 → taken path is the same block target (exit).
                bb.ret();
            });
            p.set_entry(entry);
        }
        let program = b.finish(main).unwrap();
        let trace = Executor::new(&program).run(100).unwrap();
        assert_eq!(trace.len(), 6);
    }

    #[test]
    fn div_by_zero_yields_zero_not_panic() {
        let mut b = ProgramBuilder::new();
        let main = b.procedure("main");
        {
            let p = b.proc_mut(main);
            let entry = p.block();
            p.with_block(entry, |bb| {
                bb.li(int_reg(1), 10);
                bb.li(int_reg(2), 0);
                bb.div(int_reg(3), int_reg(1), int_reg(2));
                // 10 / 0 yields 0, so this branch is always taken and the
                // block loops on itself until the cap stops execution.
                bb.beq(int_reg(3), 0, entry, entry);
            });
            p.set_entry(entry);
        }
        let program = b.finish(main).unwrap();
        // The branch is always taken → loops forever → cap stops it.
        let trace = Executor::new(&program).run(50).unwrap();
        assert!(trace.hit_cap);
    }

    #[test]
    fn hint_noops_appear_in_the_dynamic_trace() {
        let mut b = ProgramBuilder::new();
        let main = b.procedure("main");
        {
            let p = b.proc_mut(main);
            let entry = p.block();
            p.with_block(entry, |bb| {
                bb.hint_noop(16);
                bb.li(int_reg(1), 1);
                bb.ret();
            });
            p.set_entry(entry);
        }
        let program = b.finish(main).unwrap();
        let trace = Executor::new(&program).run(100).unwrap();
        assert_eq!(trace.len(), 3);
        let first = program.instruction(trace.committed[0].loc);
        assert!(first.is_hint_noop());
        assert_eq!(first.iq_hint, Some(16));
    }

    #[test]
    fn branch_outcomes_recorded_per_dynamic_instance() {
        let program = counted_loop(3, 1);
        let trace = Executor::new(&program).run(1000).unwrap();
        let outcomes: Vec<bool> = trace.committed.iter().filter_map(|d| d.taken).collect();
        assert_eq!(outcomes, vec![true, true, false]);
    }
}
