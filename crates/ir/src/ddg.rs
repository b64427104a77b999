//! Data dependence graphs (DDGs).
//!
//! §4.1: "Within each loop and DAG the DDG is constructed and its edges
//! labelled with the latencies of the instructions for use in a more
//! detailed analysis stage."
//!
//! Nodes are instruction indices within the analysed sequence (a basic block
//! or a loop body flattened into a single-iteration instruction sequence).
//! Edges carry the *producer's* latency, so the consumer cannot issue until
//! `issue(producer) + latency(producer)`, matching the pseudo-issue-queue
//! model of §4.2. Loop bodies additionally get loop-carried edges for values
//! that flow from one iteration to the next (the raw material of the cyclic
//! dependence sets of §4.3).

use crate::dataflow::sequence_def_chains;
use crate::graph::{strongly_connected_components, WeightedEdge};
use sdiq_isa::Instruction;
use serde::{Deserialize, Serialize};

/// Extra cycles the compiler assumes for a load on top of address
/// generation: the paper's analysis "assume[s] that all accesses to memory
/// are cache hits", and the modelled L1 D-cache hit latency is 2 cycles
/// (Table 1).
pub const ASSUMED_L1D_HIT_EXTRA: u32 = 2;

/// The default latency model used when building DDGs: the opcode latency,
/// plus the assumed L1 hit time for loads.
pub fn default_latency(inst: &Instruction) -> u32 {
    let base = inst.latency();
    if inst.opcode.is_load() {
        base + ASSUMED_L1D_HIT_EXTRA
    } else {
        base
    }
}

/// Kinds of dependence edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DdgEdgeKind {
    /// Register read-after-write dependence within the sequence.
    Data,
    /// Conservative memory-ordering dependence (store→load, store→store,
    /// load→store on possibly-aliasing addresses).
    Memory,
    /// Register dependence carried from the previous loop iteration.
    LoopCarried,
}

/// One dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DdgEdge {
    /// Producer instruction index.
    pub from: usize,
    /// Consumer instruction index.
    pub to: usize,
    /// Producer latency in cycles.
    pub latency: u32,
    /// Dependence kind.
    pub kind: DdgEdgeKind,
}

/// A data dependence graph over a sequence of instructions.
#[derive(Debug, Clone, Default)]
pub struct Ddg {
    node_count: usize,
    node_latency: Vec<u32>,
    edges: Vec<DdgEdge>,
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
}

impl Ddg {
    /// Builds the DDG of a straight-line instruction sequence (typically one
    /// basic block) using the [`default_latency`] model.
    pub fn for_block(instructions: &[Instruction]) -> Self {
        Self::build(instructions, false)
    }

    /// Builds the DDG of a loop body, adding loop-carried register edges,
    /// using the [`default_latency`] model.
    pub fn for_loop_body(instructions: &[Instruction]) -> Self {
        Self::build(instructions, true)
    }

    fn build(instructions: &[Instruction], loop_carried: bool) -> Self {
        let n = instructions.len();
        let mut edges: Vec<DdgEdge> = Vec::new();
        let node_latency: Vec<u32> = instructions.iter().map(default_latency).collect();

        // Register def-use chains come from the shared dataflow machinery
        // (hint NOOPs are already transparent there); memory ordering is
        // DDG-specific and tracked inline.
        let chains = sequence_def_chains(instructions);
        let mut last_store: Option<usize> = None;
        let mut loads_since_store: Vec<usize> = Vec::new();

        for (idx, inst) in instructions.iter().enumerate() {
            if inst.is_hint_noop() {
                continue;
            }
            // Register RAW dependences within the sequence.
            for &(_, def) in &chains.sources[idx] {
                if let Some(def) = def {
                    edges.push(DdgEdge {
                        from: def,
                        to: idx,
                        latency: node_latency[def],
                        kind: DdgEdgeKind::Data,
                    });
                }
            }
            if inst.opcode.is_mem() {
                if inst.opcode.is_load() {
                    if let Some(store) = last_store {
                        edges.push(DdgEdge {
                            from: store,
                            to: idx,
                            latency: node_latency[store],
                            kind: DdgEdgeKind::Memory,
                        });
                    }
                    loads_since_store.push(idx);
                } else {
                    // Store: order after the previous store and after loads
                    // issued since then.
                    if let Some(store) = last_store {
                        edges.push(DdgEdge {
                            from: store,
                            to: idx,
                            latency: 1,
                            kind: DdgEdgeKind::Memory,
                        });
                    }
                    for &ld in &loads_since_store {
                        edges.push(DdgEdge {
                            from: ld,
                            to: idx,
                            latency: 1,
                            kind: DdgEdgeKind::Memory,
                        });
                    }
                    loads_since_store.clear();
                    last_store = Some(idx);
                }
            }
        }

        // Loop-carried register dependences: a source the chains mark as
        // upward exposed (no earlier definition in the body) reads the value
        // produced by the final definition of that register in the
        // *previous* iteration.
        if loop_carried {
            for (idx, sources) in chains.sources.iter().enumerate() {
                for &(src, def_in_body) in sources {
                    if def_in_body.is_none() {
                        if let Some(&def) = chains.final_def.get(&src) {
                            edges.push(DdgEdge {
                                from: def,
                                to: idx,
                                latency: node_latency[def],
                                kind: DdgEdgeKind::LoopCarried,
                            });
                        }
                    }
                }
            }
        }

        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for (eidx, e) in edges.iter().enumerate() {
            preds[e.to].push(eidx);
            succs[e.from].push(eidx);
        }

        Ddg {
            node_count: n,
            node_latency,
            edges,
            preds,
            succs,
        }
    }

    /// Number of nodes (instructions) in the graph.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// All edges.
    pub fn edges(&self) -> &[DdgEdge] {
        &self.edges
    }

    /// Latency assigned to node `idx`.
    pub fn latency_of(&self, idx: usize) -> u32 {
        self.node_latency[idx]
    }

    /// Incoming edges of node `idx`.
    pub fn preds(&self, idx: usize) -> impl Iterator<Item = &DdgEdge> {
        self.preds[idx].iter().map(move |&e| &self.edges[e])
    }

    /// Outgoing edges of node `idx`.
    pub fn succs(&self, idx: usize) -> impl Iterator<Item = &DdgEdge> {
        self.succs[idx].iter().map(move |&e| &self.edges[e])
    }

    /// Edges that stay within one iteration (everything except loop-carried).
    pub fn intra_iteration_edges(&self) -> impl Iterator<Item = &DdgEdge> {
        self.edges
            .iter()
            .filter(|e| e.kind != DdgEdgeKind::LoopCarried)
    }

    /// Loop-carried edges only.
    pub fn loop_carried_edges(&self) -> impl Iterator<Item = &DdgEdge> {
        self.edges
            .iter()
            .filter(|e| e.kind == DdgEdgeKind::LoopCarried)
    }

    /// Strongly connected components over *all* edges (loop-carried edges
    /// close the cycles that form the paper's cyclic dependence sets).
    /// Components are returned with more than one node, or a single node
    /// with a self edge (a dependence of an instruction on its own previous
    /// iteration, like `a = a + 1`).
    pub fn cyclic_dependence_sets(&self) -> Vec<Vec<usize>> {
        let pairs: Vec<(usize, usize)> = self.edges.iter().map(|e| (e.from, e.to)).collect();
        let comps = strongly_connected_components(self.node_count, &pairs);
        comps
            .into_iter()
            .filter(|c| c.len() > 1 || self.edges.iter().any(|e| e.from == c[0] && e.to == c[0]))
            .collect()
    }

    /// Critical-path length of the intra-iteration graph starting from nodes
    /// with no intra-iteration predecessors, measured in cycles until the
    /// last result is produced. For a straight-line block this is the
    /// dataflow-limited execution time.
    pub fn critical_path_cycles(&self) -> u64 {
        // Longest path where entering node i costs latency(i); we compute
        // finish times.
        let mut finish: Vec<u64> = vec![0; self.node_count];
        for idx in 0..self.node_count {
            let ready = self
                .preds(idx)
                .filter(|e| e.kind != DdgEdgeKind::LoopCarried)
                .map(|e| finish[e.from])
                .max()
                .unwrap_or(0);
            finish[idx] = ready + u64::from(self.node_latency[idx]);
        }
        finish.into_iter().max().unwrap_or(0)
    }

    /// Forward (intra-iteration) edges as [`WeightedEdge`]s, suitable for
    /// [`crate::graph::longest_paths_forward`].
    pub fn forward_weighted_edges(&self) -> Vec<WeightedEdge> {
        self.intra_iteration_edges()
            .filter(|e| e.from < e.to)
            .map(|e| WeightedEdge {
                from: e.from,
                to: e.to,
                weight: e.latency,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdiq_isa::reg::int_reg;
    use sdiq_isa::{Instruction, Opcode};

    /// The basic block of Figure 1(a):
    /// a: add r1, 1, r1 ; b: add r2, 2, r2 ; c: mul r1, 5, r3 ;
    /// d: mul r2, 5, r4 ; e: add r3, r4, r5 ; f: add r2, r4, r6
    fn figure1_block() -> Vec<Instruction> {
        vec![
            Instruction::rri(Opcode::Addi, int_reg(1), int_reg(1), 1),
            Instruction::rri(Opcode::Addi, int_reg(2), int_reg(2), 2),
            Instruction::rri(Opcode::Addi, int_reg(3), int_reg(1), 5), // stands in for mul r1,5,r3
            Instruction::rri(Opcode::Addi, int_reg(4), int_reg(2), 5),
            Instruction::rrr(Opcode::Add, int_reg(5), int_reg(3), int_reg(4)),
            Instruction::rrr(Opcode::Add, int_reg(6), int_reg(2), int_reg(4)),
        ]
    }

    #[test]
    fn figure1_ddg_shape() {
        let ddg = Ddg::for_block(&figure1_block());
        assert_eq!(ddg.node_count(), 6);
        // c depends on a, d depends on b, e depends on c and d, f depends on
        // b and d.
        let has_edge =
            |from: usize, to: usize| ddg.edges().iter().any(|e| e.from == from && e.to == to);
        assert!(has_edge(0, 2));
        assert!(has_edge(1, 3));
        assert!(has_edge(2, 4));
        assert!(has_edge(3, 4));
        assert!(has_edge(1, 5));
        assert!(has_edge(3, 5));
        assert!(!has_edge(0, 1));
        // With unit latencies the critical path is a → c → e = 3 cycles.
        assert_eq!(ddg.critical_path_cycles(), 3);
    }

    #[test]
    fn load_latency_includes_assumed_cache_hit() {
        let instrs = vec![
            Instruction::load(Opcode::Load, int_reg(1), int_reg(2), 0),
            Instruction::rri(Opcode::Addi, int_reg(3), int_reg(1), 1),
        ];
        let ddg = Ddg::for_block(&instrs);
        let edge = ddg
            .edges()
            .iter()
            .find(|e| e.from == 0 && e.to == 1)
            .unwrap();
        assert_eq!(edge.latency, 1 + ASSUMED_L1D_HIT_EXTRA);
    }

    #[test]
    fn memory_ordering_edges_are_conservative() {
        let instrs = vec![
            Instruction::store(Opcode::Store, int_reg(1), int_reg(2), 0),
            Instruction::load(Opcode::Load, int_reg(3), int_reg(4), 8),
            Instruction::store(Opcode::Store, int_reg(5), int_reg(6), 16),
        ];
        let ddg = Ddg::for_block(&instrs);
        let kinds: Vec<_> = ddg
            .edges()
            .iter()
            .filter(|e| e.kind == DdgEdgeKind::Memory)
            .map(|e| (e.from, e.to))
            .collect();
        // store→load, store→store, load→store.
        assert!(kinds.contains(&(0, 1)));
        assert!(kinds.contains(&(0, 2)));
        assert!(kinds.contains(&(1, 2)));
    }

    #[test]
    fn figure4_loop_body_has_self_carried_cds() {
        // Figure 4: a = a + 1 ; b = a + 1 ; c = b + 1 ; d = b + 1 ;
        //           e = d + 1 ; f = c + 1   (all unit latency)
        let body = vec![
            Instruction::rri(Opcode::Addi, int_reg(1), int_reg(1), 1), // a
            Instruction::rri(Opcode::Addi, int_reg(2), int_reg(1), 1), // b
            Instruction::rri(Opcode::Addi, int_reg(3), int_reg(2), 1), // c
            Instruction::rri(Opcode::Addi, int_reg(4), int_reg(2), 1), // d
            Instruction::rri(Opcode::Addi, int_reg(5), int_reg(4), 1), // e
            Instruction::rri(Opcode::Addi, int_reg(6), int_reg(3), 1), // f
        ];
        let ddg = Ddg::for_loop_body(&body);
        // a reads r1 before any def in the body → loop-carried self edge.
        let carried: Vec<_> = ddg.loop_carried_edges().collect();
        assert!(carried.iter().any(|e| e.from == 0 && e.to == 0));
        let cds = ddg.cyclic_dependence_sets();
        assert_eq!(cds.len(), 1);
        assert_eq!(cds[0], vec![0]);
    }

    #[test]
    fn loop_carried_edges_only_for_upward_exposed_uses() {
        // r1 is defined before use inside the body → no loop-carried edge for
        // its use; r2 is upward exposed.
        let body = vec![
            Instruction::ri(Opcode::Li, int_reg(1), 3),
            Instruction::rrr(Opcode::Add, int_reg(2), int_reg(1), int_reg(2)),
        ];
        let ddg = Ddg::for_loop_body(&body);
        let carried: Vec<_> = ddg.loop_carried_edges().map(|e| (e.from, e.to)).collect();
        assert_eq!(carried, vec![(1, 1)]);
    }

    #[test]
    fn hint_noops_are_isolated_nodes() {
        let instrs = vec![
            Instruction::hint_noop(4),
            Instruction::rri(Opcode::Addi, int_reg(1), int_reg(1), 1),
        ];
        let ddg = Ddg::for_block(&instrs);
        assert_eq!(ddg.node_count(), 2);
        assert_eq!(ddg.preds(0).count(), 0);
        assert_eq!(ddg.succs(0).count(), 0);
    }

    #[test]
    fn straight_line_block_has_no_cds() {
        let ddg = Ddg::for_block(&figure1_block());
        assert!(ddg.cyclic_dependence_sets().is_empty());
    }

    #[test]
    fn forward_weighted_edges_exclude_loop_carried() {
        let body = vec![
            Instruction::rri(Opcode::Addi, int_reg(1), int_reg(1), 1),
            Instruction::rri(Opcode::Addi, int_reg(2), int_reg(1), 1),
        ];
        let ddg = Ddg::for_loop_body(&body);
        let fw = ddg.forward_weighted_edges();
        assert_eq!(fw.len(), 1);
        assert_eq!((fw[0].from, fw[0].to), (0, 1));
    }
}
