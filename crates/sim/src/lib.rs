//! # sdiq-sim — cycle-level out-of-order superscalar simulator
//!
//! The paper evaluates its technique on SimpleScalar/Wattch configured as in
//! its Table 1. Neither tool is available to this reproduction, so this crate
//! provides the machine model from scratch:
//!
//! * [`config::SimConfig::hpca2005`] — the exact Table 1 configuration:
//!   8-wide pipeline, 128-entry ROB, 80-entry issue queue (10 banks of 8),
//!   112+112 physical registers (14 banks of 8), hybrid 2K gshare / 2K
//!   bimodal / 1K selector predictor with a 2048-entry 4-way BTB, 64 KB L1
//!   caches, 512 KB L2, and the functional-unit pools and latencies of the
//!   paper,
//! * [`regfile::RenamedRegFile`] — renaming onto banked physical register
//!   files with bank-level activity tracking,
//! * [`resize`] — the resizing policies: fixed (baseline), software hints
//!   (the paper's technique) and an adaptive hardware controller standing in
//!   for Abella & González's IqRob comparator,
//! * [`plan`] — the cycle loop: [`plan::ExecPlan::lower`] lowers a
//!   program's committed instruction stream, straight from the functional
//!   executor, into a flat execution plan once per machine configuration
//!   ([`plan::ExecPlan::build`] lowers a collected trace into the same
//!   plan), and [`plan::PlanSimulator`] replays it under a resize
//!   policy through the banked, non-collapsible issue queue with the
//!   paper's `new_head` pointer, `max_new_range` dispatch limiting and
//!   Folegnani-style wakeup gating, producing the
//!   [`stats::ActivityStats`] that the power model consumes.
//!
//! # Example
//!
//! ```
//! use sdiq_isa::builder::ProgramBuilder;
//! use sdiq_isa::reg::int_reg;
//! use sdiq_isa::Executor;
//! use sdiq_sim::{ExecPlan, PlanSimulator, ResizePolicy, SimConfig};
//!
//! let mut b = ProgramBuilder::new();
//! let main = b.procedure("main");
//! {
//!     let p = b.proc_mut(main);
//!     let entry = p.block();
//!     let body = p.block();
//!     let exit = p.block();
//!     p.with_block(entry, |bb| {
//!         bb.li(int_reg(1), 0);
//!         bb.jump(body);
//!     });
//!     p.with_block(body, |bb| {
//!         bb.addi(int_reg(2), int_reg(1), 3);
//!         bb.addi(int_reg(1), int_reg(1), 1);
//!         bb.blt(int_reg(1), 100, body, exit);
//!     });
//!     p.with_block(exit, |bb| { bb.ret(); });
//!     p.set_entry(entry);
//! }
//! let program = b.finish(main).unwrap();
//!
//! let plan = ExecPlan::lower(SimConfig::hpca2005(), &program, 100_000).unwrap();
//! // One plan replays under any number of policies.
//! let result = PlanSimulator::new(&plan, ResizePolicy::Fixed).run().unwrap();
//! assert!(result.stats.ipc() > 0.0);
//! // Lowering a collected trace gives the same plan.
//! let trace = Executor::new(&program).run(100_000).unwrap();
//! assert!(plan == ExecPlan::build(SimConfig::hpca2005(), &program, &trace));
//! ```

pub mod branch;
pub mod cache;
pub mod config;
// Test-only: the issue queue's O(capacity) reference model and tests.
mod issue_queue;
// Test-only: behaviour tests of the cycle loop.
mod pipeline;
pub mod plan;
mod plan_queue;
pub mod regfile;
pub mod resize;
pub mod stats;

pub use config::{BranchPredictorConfig, CacheConfig, IssueQueueConfig, RegFileConfig, SimConfig};
pub use plan::{ExecPlan, InstRecord, PlanSimulator, SimError, SimResult};
pub use resize::{AdaptiveConfig, AdaptiveController, ResizePolicy};
pub use stats::ActivityStats;
