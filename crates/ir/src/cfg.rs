//! Interprocedural control-flow graph (ICFG) extraction.
//!
//! §3.4 of the paper pre-processes the NF into an ICFG whose nodes are
//! individual instructions, then annotates every node with an estimate of
//! the *potential cost* — the most cycles that could still be consumed
//! before the next packet is received. The annotation algorithm itself (the
//! path-vector propagation with the loop-bound parameter M) is part of the
//! analysis and lives in `castan-core`; this module provides the graph it
//! runs on: per-function, instruction-granular nodes with successor edges,
//! local cost classes, and call-site metadata.

use std::collections::HashMap;

use crate::cost::CostClass;
use crate::inst::{BlockId, FuncId, Inst, Terminator};
use crate::native::NativeId;
use crate::program::Program;

/// Index of a node inside one function's graph.
pub type NodeId = usize;

/// One ICFG node: a single instruction or terminator.
#[derive(Clone, Debug)]
pub struct CfgNode {
    /// Block the node belongs to.
    pub block: BlockId,
    /// Instruction index within the block; equal to the block's instruction
    /// count for the terminator node.
    pub index: usize,
    /// Cost class of the instruction (its "local cost" is the class's base
    /// cycles; memory instructions get the L1-hit assumption added by the
    /// annotator, per §3.4).
    pub class: CostClass,
    /// Whether the node performs a data-memory access.
    pub is_memory: bool,
    /// Callee, for IR call nodes.
    pub callee: Option<FuncId>,
    /// Native helper, for native-call nodes.
    pub native: Option<NativeId>,
    /// Intra-procedural successors.
    pub succs: Vec<NodeId>,
}

/// The instruction-level CFG of one function.
#[derive(Clone, Debug)]
pub struct FuncGraph {
    /// All nodes, in block order.
    pub nodes: Vec<CfgNode>,
    /// The function's entry node.
    pub entry: NodeId,
    index: HashMap<(BlockId, usize), NodeId>,
}

impl FuncGraph {
    /// Node id of the instruction at (`block`, `index`).
    pub fn node_at(&self, block: BlockId, index: usize) -> NodeId {
        self.index[&(block, index)]
    }

    /// Nodes that are function returns.
    pub fn return_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.class == CostClass::Return)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The whole program's graphs, indexed by function.
#[derive(Clone, Debug)]
pub struct Icfg {
    /// One graph per function, same indexing as `Program::functions`.
    pub funcs: Vec<FuncGraph>,
}

pub(crate) fn class_of(inst: &Inst) -> CostClass {
    match inst {
        Inst::Mov { .. } => CostClass::Mov,
        Inst::Bin { .. } => CostClass::Alu,
        Inst::Cmp { .. } => CostClass::Cmp,
        Inst::Select { .. } => CostClass::Select,
        Inst::Load { .. } => CostClass::Load,
        Inst::Store { .. } => CostClass::Store,
        Inst::PacketField { .. } => CostClass::PacketRead,
        Inst::Hash { .. } => CostClass::Hash,
        Inst::Call { .. } => CostClass::Call,
        Inst::Native { .. } => CostClass::Native,
    }
}

pub(crate) fn class_of_term(term: &Terminator) -> CostClass {
    match term {
        Terminator::Jump(_) => CostClass::Jump,
        Terminator::Branch { .. } => CostClass::Branch,
        Terminator::Return(_) => CostClass::Return,
    }
}

impl Icfg {
    /// Extracts the ICFG of a validated program. This is the "pre-processing
    /// stage" of §3.4 and, as the paper notes, takes well under a second even
    /// for the largest NFs.
    pub fn build(program: &Program) -> Icfg {
        let funcs = program
            .functions
            .iter()
            .map(|func| {
                let mut nodes = Vec::with_capacity(func.node_count());
                let mut index = HashMap::new();
                // First pass: create nodes.
                for (bid, block) in func.blocks.iter().enumerate() {
                    let bid = bid as BlockId;
                    for (i, inst) in block.insts.iter().enumerate() {
                        index.insert((bid, i), nodes.len());
                        nodes.push(CfgNode {
                            block: bid,
                            index: i,
                            class: class_of(inst),
                            is_memory: inst.is_memory(),
                            callee: match inst {
                                Inst::Call { func, .. } => Some(*func),
                                _ => None,
                            },
                            native: match inst {
                                Inst::Native { func, .. } => Some(*func),
                                _ => None,
                            },
                            succs: Vec::new(),
                        });
                    }
                    index.insert((bid, block.insts.len()), nodes.len());
                    nodes.push(CfgNode {
                        block: bid,
                        index: block.insts.len(),
                        class: class_of_term(&block.term),
                        is_memory: false,
                        callee: None,
                        native: None,
                        succs: Vec::new(),
                    });
                }
                // Second pass: successor edges.
                for (bid, block) in func.blocks.iter().enumerate() {
                    let bid = bid as BlockId;
                    for i in 0..block.insts.len() {
                        let me = index[&(bid, i)];
                        let next = index[&(bid, i + 1)];
                        nodes[me].succs.push(next);
                    }
                    let term_node = index[&(bid, block.insts.len())];
                    for target in block.term.successors() {
                        let succ = index[&(target, 0usize)];
                        nodes[term_node].succs.push(succ);
                    }
                }
                let entry = index[&(func.entry, 0usize)];
                FuncGraph {
                    nodes,
                    entry,
                    index,
                }
            })
            .collect();
        Icfg { funcs }
    }

    /// Graph of a function.
    pub fn func(&self, id: FuncId) -> &FuncGraph {
        &self.funcs[id as usize]
    }

    /// Total node count across all functions.
    pub fn total_nodes(&self) -> usize {
        self.funcs.iter().map(|f| f.nodes.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ProgramBuilder};
    use crate::inst::Width;

    fn diamond_program() -> Program {
        let mut f = FunctionBuilder::new("main", 0);
        let then_bb = f.new_block();
        let else_bb = f.new_block();
        let join = f.new_block();
        let x = f.load(0x10u64, Width::W8);
        let c = f.eq(x, 0u64);
        f.branch(c, then_bb, else_bb);

        f.switch_to(then_bb);
        f.store(0x20u64, 1u64, Width::W8);
        f.jump(join);

        f.switch_to(else_bb);
        f.store(0x20u64, 2u64, Width::W8);
        f.store(0x28u64, 3u64, Width::W8);
        f.jump(join);

        f.switch_to(join);
        f.ret_void();

        let mut pb = ProgramBuilder::new();
        let main = pb.add(f);
        pb.finish(main)
    }

    #[test]
    fn node_counts_match_program() {
        let p = diamond_program();
        let icfg = Icfg::build(&p);
        assert_eq!(icfg.total_nodes(), p.total_nodes());
        assert_eq!(icfg.funcs.len(), 1);
    }

    #[test]
    fn branch_has_two_successors_and_return_none() {
        let p = diamond_program();
        let icfg = Icfg::build(&p);
        let g = icfg.func(0);
        let branch_node = g
            .nodes
            .iter()
            .position(|n| n.class == CostClass::Branch)
            .unwrap();
        assert_eq!(g.nodes[branch_node].succs.len(), 2);
        let returns = g.return_nodes();
        assert_eq!(returns.len(), 1);
        assert!(g.nodes[returns[0]].succs.is_empty());
    }

    #[test]
    fn entry_is_first_instruction_of_entry_block() {
        let p = diamond_program();
        let icfg = Icfg::build(&p);
        let g = icfg.func(0);
        assert_eq!(g.entry, g.node_at(0, 0));
        assert_eq!(g.nodes[g.entry].class, CostClass::Load);
        assert!(g.nodes[g.entry].is_memory);
    }

    #[test]
    fn straight_line_edges_follow_instruction_order() {
        let p = diamond_program();
        let icfg = Icfg::build(&p);
        let g = icfg.func(0);
        // Within the entry block: load -> cmp -> branch.
        let load = g.node_at(0, 0);
        let cmp = g.node_at(0, 1);
        let br = g.node_at(0, 2);
        assert_eq!(g.nodes[load].succs, vec![cmp]);
        assert_eq!(g.nodes[cmp].succs, vec![br]);
    }

    #[test]
    fn call_nodes_record_their_callee() {
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare("callee", 0);
        let main = pb.declare("main", 0);

        let mut cb = FunctionBuilder::new("callee", 0);
        cb.ret(1u64);
        pb.define(callee, cb);

        let mut mb = FunctionBuilder::new("main", 0);
        let v = mb.call(callee, vec![]);
        mb.ret(v);
        pb.define(main, mb);

        let program = pb.finish(main);
        let icfg = Icfg::build(&program);
        let g = icfg.func(main);
        let call_node = g.nodes.iter().find(|n| n.class == CostClass::Call).unwrap();
        assert_eq!(call_node.callee, Some(callee));
    }

    #[test]
    fn loop_creates_back_edge() {
        let mut f = FunctionBuilder::new("main", 0);
        let head = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.jump(head);
        f.switch_to(head);
        let x = f.load(0x10u64, Width::W8);
        let c = f.ne(x, 0u64);
        f.branch(c, body, exit);
        f.switch_to(body);
        f.store(0x10u64, 0u64, Width::W8);
        f.jump(head);
        f.switch_to(exit);
        f.ret_void();
        let mut pb = ProgramBuilder::new();
        let main = pb.add(f);
        let program = pb.finish(main);

        let icfg = Icfg::build(&program);
        let g = icfg.func(0);
        let head_first = g.node_at(1, 0);
        // Some node must have the loop head's first instruction as successor
        // twice-reachable: both from the pre-header jump and the body's jump.
        let preds: Vec<NodeId> = g
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.succs.contains(&head_first))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(preds.len(), 2, "loop head should have two predecessors");
    }
}
