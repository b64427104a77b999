//! Iterative dataflow analysis over the CFG.
//!
//! The verifier's def-before-use check (`REG001`) needs definite
//! assignment, a forward must-analysis over the flat 64-register
//! architectural file (`r0..r31`, `f0..f31` — see
//! [`sdiq_isa::ArchReg::flat_index`]). It is an instance of the generic
//! forward worklist solver [`solve`], so a further forward problem needs
//! only its lattice and transfer function.
//!
//! The straight-line helpers ([`block_locals`], [`upward_exposed`],
//! [`sequence_def_chains`]) are the shared use/def machinery that
//! definite assignment and the [`crate::ddg`] construction are built on.

use crate::cfg::Cfg;
use sdiq_isa::reg::{fp_reg, int_reg, NUM_ARCH_INT_REGS};
use sdiq_isa::{ArchReg, BlockId, Instruction, Procedure};
use std::collections::{HashMap, VecDeque};

/// Maps a flat register index (`0..64`) back to its [`ArchReg`].
///
/// Inverse of [`ArchReg::flat_index`].
///
/// # Panics
///
/// Panics if `flat >= ArchReg::flat_count()`.
pub fn reg_from_flat(flat: usize) -> ArchReg {
    let ints = NUM_ARCH_INT_REGS as usize;
    if flat < ints {
        int_reg(flat as u8)
    } else {
        fp_reg((flat - ints) as u8)
    }
}

/// A set of architectural registers over both classes, packed into one
/// 64-bit word (bit `i` = the register with flat index `i`).
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct RegSet(u64);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);

    /// The full set (every architectural register of both classes).
    pub const FULL: RegSet = RegSet(u64::MAX);

    /// Inserts a register.
    pub fn insert(&mut self, reg: ArchReg) {
        self.0 |= 1u64 << reg.flat_index();
    }

    /// Removes a register.
    pub fn remove(&mut self, reg: ArchReg) {
        self.0 &= !(1u64 << reg.flat_index());
    }

    /// Membership test.
    pub fn contains(&self, reg: ArchReg) -> bool {
        self.0 & (1u64 << reg.flat_index()) != 0
    }

    /// Set union, in place.
    pub fn union_with(&mut self, other: &RegSet) {
        self.0 |= other.0;
    }

    /// Set intersection, in place.
    pub fn intersect_with(&mut self, other: &RegSet) {
        self.0 &= other.0;
    }

    /// Number of registers in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` if no register is in the set.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates the members in flat-index order.
    pub fn iter(&self) -> impl Iterator<Item = ArchReg> + '_ {
        let bits = self.0;
        (0..ArchReg::flat_count()).filter_map(move |i| {
            if bits & (1u64 << i) != 0 {
                Some(reg_from_flat(i))
            } else {
                None
            }
        })
    }
}

impl std::fmt::Debug for RegSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A monotone forward dataflow problem over the CFG.
///
/// The framework guarantees termination for monotone transfer functions
/// over finite-height lattices (a bit-vector problem trivially
/// qualifies). `transfer` maps the fact at a block's entry to the fact at
/// its exit.
pub trait DataflowAnalysis {
    /// The lattice element.
    type Fact: Clone + PartialEq;

    /// The fact at the procedure entry.
    fn boundary(&self) -> Self::Fact;

    /// The initial (optimistic) fact for every block.
    fn top(&self) -> Self::Fact;

    /// Combines a predecessor's fact into the accumulator.
    fn meet(&self, acc: &mut Self::Fact, other: &Self::Fact);

    /// The block's transfer function.
    fn transfer(&self, block: BlockId, entry: &Self::Fact) -> Self::Fact;
}

/// The fixpoint of a dataflow problem: one fact per block entry and one
/// per block exit. Unreachable blocks keep the `top` fact.
#[derive(Debug, Clone)]
pub struct DataflowSolution<F> {
    /// Fact holding at each block's entry, indexed by `BlockId`.
    pub entry: Vec<F>,
    /// Fact holding at each block's exit, indexed by `BlockId`.
    pub exit: Vec<F>,
}

/// Solves `analysis` to fixpoint with a worklist over the reachable blocks
/// of `cfg`, seeded in reverse post-order so typical acyclic flow
/// converges in one sweep.
pub fn solve<A: DataflowAnalysis>(cfg: &Cfg, analysis: &A) -> DataflowSolution<A::Fact> {
    let n = cfg.block_count();
    let mut entry: Vec<A::Fact> = (0..n).map(|_| analysis.top()).collect();
    let mut exit: Vec<A::Fact> = (0..n).map(|_| analysis.top()).collect();

    let order = cfg.reverse_postorder();
    let mut queued = vec![false; n];
    let mut worklist: VecDeque<BlockId> = VecDeque::with_capacity(order.len());
    for &b in order {
        queued[b.0] = true;
        worklist.push_back(b);
    }

    while let Some(b) = worklist.pop_front() {
        queued[b.0] = false;
        let mut fact = if b == cfg.entry() {
            analysis.boundary()
        } else {
            analysis.top()
        };
        for &p in cfg.preds(b) {
            // Unreachable predecessors hold no real fact; letting their
            // `top` transfer leak in would be unsound for union problems.
            if cfg.is_reachable(p) {
                analysis.meet(&mut fact, &exit[p.0]);
            }
        }
        let new_exit = analysis.transfer(b, &fact);
        entry[b.0] = fact;
        if new_exit != exit[b.0] {
            exit[b.0] = new_exit;
            for &s in cfg.succs(b) {
                if cfg.is_reachable(s) && !queued[s.0] {
                    queued[s.0] = true;
                    worklist.push_back(s);
                }
            }
        }
    }

    DataflowSolution { entry, exit }
}

/// Per-block local register sets: the raw material of every register
/// bit-vector analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockLocals {
    /// Upward-exposed uses: registers read before any definition in the
    /// block (what liveness calls the `use` set).
    pub uses: RegSet,
    /// Registers the block defines.
    pub defs: RegSet,
}

/// Computes the upward-exposed-use and definition sets of a straight-line
/// instruction sequence. Hint NOOPs are transparent: they read and write
/// nothing.
pub fn block_locals(instructions: &[Instruction]) -> BlockLocals {
    let mut locals = BlockLocals::default();
    for inst in instructions {
        if inst.is_hint_noop() {
            continue;
        }
        for src in inst.sources() {
            if !locals.defs.contains(src) {
                locals.uses.insert(src);
            }
        }
        if let Some(dest) = inst.dest {
            locals.defs.insert(dest);
        }
    }
    locals
}

/// Upward-exposed operand analysis: the per-block [`BlockLocals`] of every
/// block of a procedure, indexed by `BlockId`. The `uses` sets are exactly
/// the operands whose values flow into the block from outside — for a loop
/// body, the candidates for loop-carried dependences.
pub fn upward_exposed(proc: &Procedure) -> Vec<BlockLocals> {
    proc.blocks
        .iter()
        .map(|b| block_locals(&b.instructions))
        .collect()
}

/// Definite-assignment analysis (forward, must-intersection): at each
/// block entry, the registers guaranteed to have been written on *every*
/// path from the procedure entry.
#[derive(Debug, Clone)]
pub struct DefiniteAssignment {
    /// Definitely-assigned registers at each block's entry.
    pub assigned_in: Vec<RegSet>,
}

impl DefiniteAssignment {
    /// Runs definite assignment over `proc`.
    pub fn compute(proc: &Procedure, cfg: &Cfg) -> Self {
        struct Problem<'a> {
            locals: &'a [BlockLocals],
        }
        impl DataflowAnalysis for Problem<'_> {
            type Fact = RegSet;
            fn boundary(&self) -> RegSet {
                RegSet::EMPTY
            }
            fn top(&self) -> RegSet {
                RegSet::FULL
            }
            fn meet(&self, acc: &mut RegSet, other: &RegSet) {
                acc.intersect_with(other);
            }
            fn transfer(&self, block: BlockId, assigned_in: &RegSet) -> RegSet {
                let mut out = *assigned_in;
                out.union_with(&self.locals[block.0].defs);
                out
            }
        }
        let locals = upward_exposed(proc);
        let solution = solve(cfg, &Problem { locals: &locals });
        DefiniteAssignment {
            assigned_in: solution.entry,
        }
    }

    /// Every use of a register that is not definitely assigned on some
    /// path from the procedure entry, as `(block, instruction index,
    /// register)` triples in program order. Registers are implicitly
    /// zero-initialised by the functional executor, so these are
    /// *advisory* (a procedure reading its arguments reports its incoming
    /// registers here).
    pub fn possibly_undefined_uses(
        &self,
        proc: &Procedure,
        cfg: &Cfg,
    ) -> Vec<(BlockId, usize, ArchReg)> {
        let mut out = Vec::new();
        for (bid, block) in proc.iter_blocks() {
            if !cfg.is_reachable(bid) {
                continue;
            }
            let mut assigned = self.assigned_in[bid.0];
            for (idx, inst) in block.instructions.iter().enumerate() {
                if inst.is_hint_noop() {
                    continue;
                }
                for src in inst.sources() {
                    if !assigned.contains(src) {
                        out.push((bid, idx, src));
                    }
                }
                if let Some(dest) = inst.dest {
                    assigned.insert(dest);
                }
            }
        }
        out
    }
}

/// Per-instruction def-use chains of a straight-line sequence (a basic
/// block, or a loop body flattened to one iteration).
#[derive(Debug, Clone, Default)]
pub struct SequenceDefChains {
    /// For each instruction, its source operands paired with the index of
    /// the defining instruction within the sequence — `None` when the
    /// operand is upward exposed (defined outside the sequence, or by the
    /// previous iteration of a loop). Sources appear in
    /// [`Instruction::sources`] order; hint NOOPs get an empty list.
    pub sources: Vec<Vec<(ArchReg, Option<usize>)>>,
    /// The final (downward-exposed) definition of each register over the
    /// whole sequence.
    pub final_def: HashMap<ArchReg, usize>,
}

/// Builds the def-use chains of `instructions`: the shared machinery
/// behind [`crate::Ddg`]'s register and loop-carried edges.
pub fn sequence_def_chains(instructions: &[Instruction]) -> SequenceDefChains {
    let mut chains = SequenceDefChains {
        sources: Vec::with_capacity(instructions.len()),
        final_def: HashMap::new(),
    };
    let mut last_def: HashMap<ArchReg, usize> = HashMap::new();
    for (idx, inst) in instructions.iter().enumerate() {
        if inst.is_hint_noop() {
            chains.sources.push(Vec::new());
            continue;
        }
        let srcs = inst
            .sources()
            .map(|src| (src, last_def.get(&src).copied()))
            .collect();
        chains.sources.push(srcs);
        if let Some(dest) = inst.dest {
            last_def.insert(dest, idx);
        }
    }
    chains.final_def = last_def;
    chains
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdiq_isa::builder::ProgramBuilder;
    use sdiq_isa::{Opcode, Program};

    /// entry: r1 = 0          → body
    /// body:  r2 = r1 + 1 ; r1 = r1 + 1 ; blt r1, 10, body, exit
    /// exit:  r3 = r2 + 1 ; ret
    fn loop_program() -> Program {
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
                bb.addi(int_reg(2), int_reg(1), 1);
                bb.addi(int_reg(1), int_reg(1), 1);
                bb.blt(int_reg(1), 10, body, exit);
            });
            p.with_block(exit, |bb| {
                bb.addi(int_reg(3), int_reg(2), 1);
                bb.ret();
            });
            p.set_entry(entry);
        }
        b.finish(main).unwrap()
    }

    #[test]
    fn regset_roundtrips_members() {
        let mut s = RegSet::EMPTY;
        s.insert(int_reg(3));
        s.insert(fp_reg(7));
        assert!(s.contains(int_reg(3)));
        assert!(s.contains(fp_reg(7)));
        assert!(!s.contains(int_reg(7)));
        assert_eq!(s.len(), 2);
        let members: Vec<ArchReg> = s.iter().collect();
        assert_eq!(members, vec![int_reg(3), fp_reg(7)]);
    }

    #[test]
    fn reg_from_flat_inverts_flat_index() {
        for i in 0..ArchReg::flat_count() {
            assert_eq!(reg_from_flat(i).flat_index(), i);
        }
    }

    #[test]
    fn definite_assignment_flags_unwritten_reads() {
        let program = loop_program();
        let proc = program.proc(program.entry);
        let cfg = Cfg::build(proc);
        let da = DefiniteAssignment::compute(proc, &cfg);
        // r1 is assigned on every path into the body; r2 likewise into exit.
        assert!(da.assigned_in[1].contains(int_reg(1)));
        assert!(da.assigned_in[2].contains(int_reg(2)));
        assert!(da.possibly_undefined_uses(proc, &cfg).is_empty());
    }

    #[test]
    fn definite_assignment_is_a_must_analysis() {
        // Diamond where only one arm writes r5: the join must not consider
        // r5 assigned.
        let mut b = ProgramBuilder::new();
        let main = b.procedure("main");
        {
            let p = b.proc_mut(main);
            let entry = p.block();
            let left = p.block();
            let right = p.block();
            let join = p.block();
            p.with_block(entry, |bb| {
                bb.li(int_reg(1), 1);
                bb.bgt(int_reg(1), 0, left, right);
            });
            p.with_block(left, |bb| {
                bb.li(int_reg(5), 9);
                bb.jump(join);
            });
            p.with_block(right, |bb| {
                bb.nop();
                bb.jump(join);
            });
            p.with_block(join, |bb| {
                bb.addi(int_reg(6), int_reg(5), 1);
                bb.ret();
            });
            p.set_entry(entry);
        }
        let program = b.finish(main).unwrap();
        let proc = program.proc(program.entry);
        let cfg = Cfg::build(proc);
        let da = DefiniteAssignment::compute(proc, &cfg);
        assert!(!da.assigned_in[3].contains(int_reg(5)));
        let undef = da.possibly_undefined_uses(proc, &cfg);
        assert_eq!(undef.len(), 1);
        assert_eq!(undef[0].2, int_reg(5));
    }

    #[test]
    fn upward_exposed_respects_in_block_order() {
        let instrs = vec![
            Instruction::ri(Opcode::Li, int_reg(1), 3),
            // Reads r1 after the def above (not exposed) and r2 (exposed).
            Instruction::rrr(Opcode::Add, int_reg(3), int_reg(1), int_reg(2)),
        ];
        let locals = block_locals(&instrs);
        assert!(!locals.uses.contains(int_reg(1)));
        assert!(locals.uses.contains(int_reg(2)));
        assert!(locals.defs.contains(int_reg(1)));
        assert!(locals.defs.contains(int_reg(3)));
    }

    #[test]
    fn sequence_def_chains_mark_upward_exposed_sources() {
        let instrs = vec![
            Instruction::rri(Opcode::Addi, int_reg(1), int_reg(1), 1),
            Instruction::rri(Opcode::Addi, int_reg(2), int_reg(1), 1),
        ];
        let chains = sequence_def_chains(&instrs);
        // First instruction reads r1 from outside the sequence.
        assert_eq!(chains.sources[0], vec![(int_reg(1), None)]);
        // Second reads the r1 defined at index 0.
        assert_eq!(chains.sources[1], vec![(int_reg(1), Some(0))]);
        assert_eq!(chains.final_def[&int_reg(1)], 0);
        assert_eq!(chains.final_def[&int_reg(2)], 1);
    }

    #[test]
    fn hint_noops_are_transparent_to_chains() {
        let instrs = vec![
            Instruction::hint_noop(4),
            Instruction::rri(Opcode::Addi, int_reg(1), int_reg(1), 1),
        ];
        let chains = sequence_def_chains(&instrs);
        assert!(chains.sources[0].is_empty());
        assert_eq!(chains.sources[1], vec![(int_reg(1), None)]);
    }
}
