//! Def-use chains and a hash-consed, constant-folding value graph.
//!
//! [`DefUse`] records, per temp, every definition and use site as a
//! `(block, op index)` pair (terminator reads use the index one past
//! the last op). It is the precision layer `licm` and `gvn` need on a
//! non-SSA IR: "single static definition", "no other def inside this
//! loop", "every use dominated by the def" are all direct queries.
//!
//! [`ValueGraph`] resolves each *single-def* temp to a node in a
//! hash-consed expression DAG: constants, parameters, opaque sources
//! (loads, calls, port reads, multi-def temps, cyclic chains) and pure
//! operator nodes over child nodes. Nodes whose children are constants
//! fold at construction with the interpreter's own operator semantics,
//! so [`ValueGraph::const_of_temp`] answers "does this temp always
//! hold constant k?" even when k flowed through a chain of copies and
//! arithmetic across blocks — the fact the loop-bound prover feeds
//! into the IPET engine.
//!
//! The module also hosts the coarse store/call aliasing test
//! ([`may_alias`] / [`op_clobbers`]) shared by `cse`, `gvn` and
//! `load_fwd`: `Param` bases may alias anything, named globals and
//! locals only themselves.

use super::{for_each_read, for_each_term_read, for_each_write};
use std::collections::HashMap;
use teamplay_minic::ast::{BinOp, UnOp};
use teamplay_minic::interp::eval_binop;
use teamplay_minic::ir::{IrFunction, IrOp, MemBase, Operand, Temp};

/// Per-temp definition and use sites over one function.
///
/// Sites are `(block index, op index)`; a use in a block's terminator
/// is recorded at op index `block.ops.len()`. Parameters are *not*
/// listed as definition sites (they are defined "before" the entry
/// block) but are reported by [`DefUse::is_param`] and counted by
/// [`DefUse::def_count`].
#[derive(Clone, Debug)]
pub struct DefUse {
    defs: Vec<Vec<(usize, usize)>>,
    uses: Vec<Vec<(usize, usize)>>,
    param: Vec<bool>,
}

impl DefUse {
    /// Scan `f` and collect every def and use site.
    pub fn build(f: &IrFunction) -> DefUse {
        let n = f.temp_count as usize;
        let mut defs = vec![Vec::new(); n];
        let mut uses = vec![Vec::new(); n];
        let mut param = vec![false; n];
        for p in &f.params {
            param[p.temp.0 as usize] = true;
        }
        for (bi, b) in f.blocks.iter().enumerate() {
            for (oi, op) in b.ops.iter().enumerate() {
                for_each_read(op, |t| uses[t.0 as usize].push((bi, oi)));
                for_each_write(op, |t| defs[t.0 as usize].push((bi, oi)));
            }
            for_each_term_read(&b.term, |t| uses[t.0 as usize].push((bi, b.ops.len())));
        }
        DefUse { defs, uses, param }
    }

    /// Definition sites of `t` (ops only — see [`DefUse::is_param`]).
    pub fn defs(&self, t: Temp) -> &[(usize, usize)] {
        &self.defs[t.0 as usize]
    }

    /// Use sites of `t`, in block/op order.
    pub fn uses(&self, t: Temp) -> &[(usize, usize)] {
        &self.uses[t.0 as usize]
    }

    /// Whether `t` is a function parameter (defined at entry).
    pub fn is_param(&self, t: Temp) -> bool {
        self.param[t.0 as usize]
    }

    /// Total definition count: op defs plus one for a parameter.
    pub fn def_count(&self, t: Temp) -> usize {
        self.defs[t.0 as usize].len() + usize::from(self.param[t.0 as usize])
    }

    /// The unique op definition site of `t`, when `t` has exactly one
    /// definition in the whole function (and is not a parameter).
    pub fn single_def(&self, t: Temp) -> Option<(usize, usize)> {
        match (self.param[t.0 as usize], self.defs[t.0 as usize].as_slice()) {
            (false, [site]) => Some(*site),
            _ => None,
        }
    }
}

/// May a store through `a` write memory a load through `b` reads?
/// Coarse but sound: array parameters can alias anything (callers pass
/// globals and locals by reference), named globals and local arrays
/// only alias themselves.
pub fn may_alias(a: &MemBase, b: &MemBase) -> bool {
    match (a, b) {
        (MemBase::Param(_), _) | (_, MemBase::Param(_)) => true,
        (MemBase::Global(x), MemBase::Global(y)) => x == y,
        (MemBase::Local(x), MemBase::Local(y)) => x == y,
        _ => false,
    }
}

/// May executing `op` change the memory behind `base`? `Store` clobbers
/// aliasing bases, `Call` clobbers everything (callees may write any
/// global or any array passed by reference anywhere in the call graph).
pub fn op_clobbers(op: &IrOp, base: &MemBase) -> bool {
    match op {
        IrOp::Store { base: sb, .. } => may_alias(sb, base),
        IrOp::Call { .. } => true,
        _ => false,
    }
}

/// Identity of one value-graph node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ValueNode {
    /// A compile-time constant.
    Const(i32),
    /// A function parameter.
    Param(Temp),
    /// An unanalysable source (load, call result, port read, multi-def
    /// temp, or a cyclic def chain); the id keeps distinct sources from
    /// hash-consing together.
    Opaque(u32),
    /// A pure binary operator over two nodes.
    Bin(BinOp, usize, usize),
    /// A pure unary operator over a node.
    Un(UnOp, usize),
    /// A branchless select over three nodes.
    Select(usize, usize, usize),
}

/// The hash-consed value graph of one function.
#[derive(Clone, Debug)]
pub struct ValueGraph {
    nodes: Vec<ValueNode>,
    /// Node of each temp (`None` for temps without any definition).
    temp_node: Vec<Option<usize>>,
    /// Direct operand temps of each single-def temp's defining op.
    operand_temps: Vec<Vec<Temp>>,
}

/// Resolution state of one temp during construction.
enum Resolve {
    InProgress,
    Done(usize),
}

impl ValueGraph {
    /// Build the value graph of `f` over its def-use chains.
    pub fn build(f: &IrFunction, du: &DefUse) -> ValueGraph {
        let n = f.temp_count as usize;
        let mut vg = ValueGraph {
            nodes: Vec::new(),
            temp_node: vec![None; n],
            operand_temps: vec![Vec::new(); n],
        };
        let mut interner: HashMap<ValueNode, usize> = HashMap::new();
        let mut opaque_seq = 0u32;
        let mut state: Vec<Option<Resolve>> = (0..n).map(|_| None).collect();
        for t in 0..n {
            vg.resolve(
                Temp(t as u32),
                f,
                du,
                &mut interner,
                &mut opaque_seq,
                &mut state,
            );
        }
        vg
    }

    fn intern(&mut self, interner: &mut HashMap<ValueNode, usize>, node: ValueNode) -> usize {
        if let Some(&id) = interner.get(&node) {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(node.clone());
        interner.insert(node, id);
        id
    }

    fn fresh_opaque(&mut self, opaque_seq: &mut u32) -> usize {
        let id = self.nodes.len();
        self.nodes.push(ValueNode::Opaque(*opaque_seq));
        *opaque_seq += 1;
        id
    }

    fn mk_bin(
        &mut self,
        interner: &mut HashMap<ValueNode, usize>,
        op: BinOp,
        a: usize,
        b: usize,
    ) -> usize {
        if let (ValueNode::Const(x), ValueNode::Const(y)) = (&self.nodes[a], &self.nodes[b]) {
            let v = eval_binop(op, *x, *y);
            return self.intern(interner, ValueNode::Const(v));
        }
        self.intern(interner, ValueNode::Bin(op, a, b))
    }

    fn mk_un(&mut self, interner: &mut HashMap<ValueNode, usize>, op: UnOp, a: usize) -> usize {
        if let ValueNode::Const(x) = self.nodes[a] {
            let v = match op {
                UnOp::Neg => x.wrapping_neg(),
                UnOp::BitNot => !x,
                UnOp::LogNot => i32::from(x == 0),
            };
            return self.intern(interner, ValueNode::Const(v));
        }
        self.intern(interner, ValueNode::Un(op, a))
    }

    fn resolve(
        &mut self,
        t: Temp,
        f: &IrFunction,
        du: &DefUse,
        interner: &mut HashMap<ValueNode, usize>,
        opaque_seq: &mut u32,
        state: &mut [Option<Resolve>],
    ) -> usize {
        let ti = t.0 as usize;
        match state[ti] {
            Some(Resolve::Done(id)) => return id,
            // A cyclic def chain (`i = i + 1` styles) is opaque.
            Some(Resolve::InProgress) => return self.fresh_opaque(opaque_seq),
            None => {}
        }
        state[ti] = Some(Resolve::InProgress);
        let id = if du.is_param(t) {
            self.intern(interner, ValueNode::Param(t))
        } else if let Some((bi, oi)) = du.single_def(t) {
            let op = f.blocks[bi].ops[oi].clone();
            let mut opnds = Vec::new();
            for_each_read(&op, |r| opnds.push(r));
            self.operand_temps[ti] = opnds;
            let child = |vg: &mut ValueGraph,
                         interner: &mut HashMap<ValueNode, usize>,
                         opaque_seq: &mut u32,
                         state: &mut [Option<Resolve>],
                         o: &Operand| match o {
                Operand::Const(c) => vg.intern(interner, ValueNode::Const(*c)),
                Operand::Temp(u) => vg.resolve(*u, f, du, interner, opaque_seq, state),
            };
            match &op {
                IrOp::Copy { src, .. } => child(self, interner, opaque_seq, state, src),
                IrOp::Bin { op: bop, a, b, .. } => {
                    let an = child(self, interner, opaque_seq, state, a);
                    let bn = child(self, interner, opaque_seq, state, b);
                    self.mk_bin(interner, *bop, an, bn)
                }
                IrOp::Un { op: uop, a, .. } => {
                    let an = child(self, interner, opaque_seq, state, a);
                    self.mk_un(interner, *uop, an)
                }
                IrOp::Select { cond, t, f: fo, .. } => {
                    let cn = child(self, interner, opaque_seq, state, cond);
                    let tn = child(self, interner, opaque_seq, state, t);
                    let fn_ = child(self, interner, opaque_seq, state, fo);
                    if let ValueNode::Const(c) = self.nodes[cn] {
                        if c != 0 {
                            tn
                        } else {
                            fn_
                        }
                    } else {
                        self.intern(interner, ValueNode::Select(cn, tn, fn_))
                    }
                }
                // Loads, calls and port reads are runtime sources.
                _ => self.fresh_opaque(opaque_seq),
            }
        } else {
            // Multi-def temps (and never-defined temps, which read 0 —
            // but nothing should consume them) are opaque.
            self.fresh_opaque(opaque_seq)
        };
        state[ti] = Some(Resolve::Done(id));
        self.temp_node[ti] = Some(id);
        id
    }

    /// The node a temp resolves to, if it has any definition.
    pub fn node_of_temp(&self, t: Temp) -> Option<&ValueNode> {
        self.temp_node[t.0 as usize].map(|id| &self.nodes[id])
    }

    /// The constant value `t` always evaluates to, if its whole def
    /// chain folds. (Validity at a *site* additionally needs the chain
    /// anchored by dominating defs — see the loop-bound prover.)
    pub fn const_of_temp(&self, t: Temp) -> Option<i32> {
        match self.node_of_temp(t) {
            Some(ValueNode::Const(c)) => Some(*c),
            _ => None,
        }
    }

    /// Direct operand temps of `t`'s defining op (empty unless `t` is
    /// single-def) — the edges of the def chain, for anchoring checks.
    pub fn operand_temps(&self, t: Temp) -> &[Temp] {
        &self.operand_temps[t.0 as usize]
    }
}
