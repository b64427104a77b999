//! # sdiq-ir — compiler IR and analyses
//!
//! The paper's compiler pass is hosted in MachineSUIF, which supplies the
//! control-flow graph, natural-loop identification and traversal
//! infrastructure. This crate rebuilds exactly the pieces the pass needs,
//! operating directly on [`sdiq_isa::Program`]s:
//!
//! * [`cfg::Cfg`] — per-procedure control-flow graph with predecessor /
//!   successor lists and reverse post-order,
//! * [`dominators::Dominators`] — dominator tree (iterative Cooper–Harvey–
//!   Kennedy algorithm),
//! * [`loops::LoopNest`] — natural loops found from back edges, with inner
//!   loops separated from their enclosing loops exactly as §4.1 describes
//!   ("the inner loop's basic blocks form one loop and those that are only
//!   in the outer loop form another"),
//! * [`regions::DagRegions`] — the paper's DAGs: groups of non-loop blocks
//!   starting at the procedure entry or at the block following a call,
//! * [`ddg::Ddg`] — latency-labelled data dependence graphs for straight-line
//!   code and for loop bodies (including loop-carried edges), plus the graph
//!   utilities (SCCs, longest paths) the loop analysis of §4.3 relies on,
//! * [`dataflow`] — a forward iterative (worklist) dataflow solver over
//!   the CFG with one instance, definite assignment (the verifier's
//!   def-before-use check), plus the straight-line use/def helpers that
//!   instance and the DDG's def-use chains are built on.
//!
//! # Example
//!
//! ```
//! use sdiq_isa::builder::ProgramBuilder;
//! use sdiq_isa::reg::int_reg;
//! use sdiq_ir::ProcedureAnalysis;
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
//!         bb.addi(int_reg(1), int_reg(1), 1);
//!         bb.blt(int_reg(1), 100, body, exit);
//!     });
//!     p.with_block(exit, |bb| { bb.ret(); });
//!     p.set_entry(entry);
//! }
//! let program = b.finish(main).unwrap();
//!
//! let analysis = ProcedureAnalysis::analyse(program.proc(main));
//! assert_eq!(analysis.loops.loops().len(), 1);
//! ```

pub mod cfg;
pub mod dataflow;
pub mod ddg;
pub mod dominators;
pub mod graph;
pub mod loops;
pub mod regions;

pub use cfg::Cfg;
pub use dataflow::{BlockLocals, DataflowAnalysis, DataflowSolution, DefiniteAssignment, RegSet};
pub use ddg::{Ddg, DdgEdge, DdgEdgeKind};
pub use dominators::Dominators;
pub use loops::{LoopNest, NaturalLoop};
pub use regions::{DagRegion, DagRegions};

use sdiq_isa::Procedure;

/// Bundles every per-procedure analysis the compiler pass needs.
///
/// This is the "break-down into groups" step of Figure 5 in the paper: find
/// the natural loops, form the DAGs from everything else, and keep the CFG /
/// dominator information around for the detailed per-block analysis.
#[derive(Debug, Clone)]
pub struct ProcedureAnalysis {
    /// The procedure's control-flow graph.
    pub cfg: Cfg,
    /// Dominator information computed over `cfg`.
    pub dominators: Dominators,
    /// Natural loops of the procedure.
    pub loops: LoopNest,
    /// DAG regions covering the non-loop blocks.
    pub regions: DagRegions,
}

impl ProcedureAnalysis {
    /// Runs the full per-procedure analysis pipeline.
    pub fn analyse(proc: &Procedure) -> Self {
        let cfg = Cfg::build(proc);
        let dominators = Dominators::compute(&cfg);
        let loops = LoopNest::find(&cfg, &dominators);
        let regions = DagRegions::find(proc, &cfg, &loops);
        ProcedureAnalysis {
            cfg,
            dominators,
            loops,
            regions,
        }
    }
}
