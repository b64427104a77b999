//! # sdiq-isa — synthetic ISA, program representation and functional executor
//!
//! The HPCA 2005 paper evaluates its technique on Alpha binaries compiled
//! with MachineSUIF and executed on SimpleScalar/Wattch. Neither the Alpha
//! toolchain nor SPEC sources are available to this reproduction, so this
//! crate provides the substrate they played: a small, fully synthetic
//! RISC-style instruction set with
//!
//! * typed opcodes mapped to functional-unit classes and latencies
//!   (matching Table 1 of the paper),
//! * a structured program representation (procedures → basic blocks →
//!   instructions) that the compiler IR ([`sdiq-ir`]) analyses directly,
//! * per-instruction issue-queue *hints* — either stand-alone special NOOPs
//!   ([`Opcode::HintNoop`]) or tags attached to ordinary instructions
//!   ([`Instruction::iq_hint`]) — which are how the compiler communicates
//!   `max_new_range` to the processor, and
//! * a deterministic functional executor ([`exec::Executor`]) that resolves
//!   branches, memory addresses and loop trip counts, producing the dynamic
//!   instruction trace that the timing simulator replays.
//!
//! # Example
//!
//! ```
//! use sdiq_isa::builder::ProgramBuilder;
//! use sdiq_isa::exec::Executor;
//! use sdiq_isa::reg::int_reg;
//!
//! // A tiny program: r1 = 1 + 2; loop 3 times decrementing r2.
//! let mut b = ProgramBuilder::new();
//! let main = b.procedure("main");
//! {
//!     let p = b.proc_mut(main);
//!     let entry = p.block();
//!     let body = p.block();
//!     let exit = p.block();
//!     p.with_block(entry, |bb| {
//!         bb.li(int_reg(1), 1);
//!         bb.li(int_reg(2), 3);
//!         bb.jump(body);
//!     });
//!     p.with_block(body, |bb| {
//!         bb.addi(int_reg(1), int_reg(1), 2);
//!         bb.subi(int_reg(2), int_reg(2), 1);
//!         bb.bgt(int_reg(2), 0, body, exit);
//!     });
//!     p.with_block(exit, |bb| {
//!         bb.ret();
//!     });
//!     p.set_entry(entry);
//! }
//! let program = b.finish(main).expect("valid program");
//!
//! let trace = Executor::new(&program).run(10_000).expect("terminates");
//! assert!(trace.committed.len() > 5);
//! ```

pub mod builder;
pub mod exec;
pub mod inst;
pub mod machine;
pub mod opcode;
pub mod program;
pub mod reg;

pub use builder::{BlockBuilder, ProcedureBuilder, ProgramBuilder};
pub use exec::{DynInst, ExecError, Executor, RunSummary, Trace};
pub use inst::{Instruction, MemRef};
pub use machine::{FuCounts, MachineWidths};
pub use opcode::{FuClass, Opcode};
pub use program::{
    AddressMap, BasicBlock, BlockId, BlockRef, InstrLoc, ProcId, Procedure, Program,
};
pub use reg::{fp_reg, int_reg, ArchReg, RegClass, NUM_ARCH_FP_REGS, NUM_ARCH_INT_REGS};
