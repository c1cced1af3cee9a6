//! # Dataflow backbone for the Mini-C IR
//!
//! The analyses every strong pass leans on, each built from one function
//! body by the pass (or codegen step) that needs it:
//!
//! * [`dominance`] — the immediate-dominator tree ([`DomTree`]), built
//!   with the Cooper/Harvey/Kennedy iterative algorithm over the
//!   existing reverse postorder (`teamplay_minic::cfg`), plus a DFS
//!   interval numbering so `dominates(a, b)` is O(1);
//! * [`liveness`] — global per-block live-in/live-out sets over IR
//!   temps ([`Liveness`]), the backward may-analysis codegen uses to
//!   coalesce copy-related temps into one home;
//! * [`value_graph`] — def-use chains ([`DefUse`]) and a hash-consed,
//!   constant-folding value graph ([`ValueGraph`]) with the coarse
//!   store/call aliasing test ([`value_graph::may_alias`]) behind the
//!   load kills of `gvn` and `load_fwd`;
//! * [`available`] — the forward must-availability solver
//!   ([`forward_must`]) shared by `gvn` and `load_fwd`: each block's
//!   ops fold once into a gen/kill [`Transfer`] summary, and the
//!   fixpoint iterates those summaries in reverse postorder
//!   (meet = ∩, entry = ∅).
//!
//! The consumers are deliberately split across three layers: the
//! optimisation passes (`gvn`, `load_fwd`, the dominance-based `licm`),
//! the IR→ISA transfer (liveness-driven copy coalescing in
//! [`crate::codegen`]), and the WCET flow-fact plumbing (the value
//! graph resolves loop limits/inits/steps that flow through temps into
//! the loop-bound facts of the IPET engine).
//!
//! All analyses are pure functions of one `IrFunction` body, and nothing
//! here mutates IR. No analysis outlives the body it was built from: a
//! pass that rewrites the body rebuilds what it needs next (as `licm`
//! does after every hoist).
//!
//! The operand visitors ([`for_each_read`], [`for_each_write`],
//! [`for_each_term_read`] and the rewriting [`for_each_operand_mut`])
//! say which temps and operands each IR op touches; the passes, the
//! analyses and codegen share them.

pub mod available;
pub mod dominance;
pub mod liveness;
pub mod value_graph;

pub use available::{forward_must, GenKill, Transfer};
pub use dominance::DomTree;
pub use liveness::Liveness;
pub use value_graph::{may_alias, op_clobbers, DefUse, ValueGraph};

use teamplay_minic::ir::{CallArg, IrOp, IrTerm, MemBase, Operand, Temp};

/// A fixed-capacity bit set over `0..len` (temps, blocks, expression
/// ids). The workhorse container of the dataflow fixpoints — all set
/// algebra is word-parallel and the mutating operators report whether
/// anything changed, which is exactly the fixpoint termination test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over the universe `0..len`.
    pub fn new(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A full set over the universe `0..len`.
    pub fn full(len: usize) -> BitSet {
        let mut s = BitSet::new(len);
        s.fill();
        s
    }

    /// Add every member of the universe.
    pub fn fill(&mut self) {
        for w in &mut self.words {
            *w = u64::MAX;
        }
        if !self.len.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << (self.len % 64)) - 1;
            }
        }
    }

    /// Remove every member.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// The set of `members` over the universe `0..len`.
    pub fn from_members(len: usize, members: impl IntoIterator<Item = usize>) -> BitSet {
        let mut s = BitSet::new(len);
        for i in members {
            s.insert(i);
        }
        s
    }

    /// The universe size this set ranges over.
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Add `i`; returns `true` if it was absent.
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let absent = self.words[w] & b == 0;
        self.words[w] |= b;
        absent
    }

    /// Remove `i`.
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// `self ∪= other`; returns `true` if `self` grew.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// `self ∩= other`; returns `true` if `self` shrank.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a & b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Do `self` and `other` share any member?
    pub fn intersects(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// The smallest member of `self ∩ other`.
    pub fn first_shared(&self, other: &BitSet) -> Option<usize> {
        debug_assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .find_map(|(wi, (a, b))| {
                let w = a & b;
                (w != 0).then(|| wi * 64 + w.trailing_zeros() as usize)
            })
    }

    /// `self -= other`.
    pub fn subtract(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            })
        })
    }
}

/// Visit every temp an op *reads* (operands, memory indices, the base
/// temps of `Param` arrays, call arguments).
pub fn for_each_read(op: &IrOp, mut visit: impl FnMut(Temp)) {
    fn operand(o: &Operand, visit: &mut impl FnMut(Temp)) {
        if let Operand::Temp(t) = o {
            visit(*t);
        }
    }
    match op {
        IrOp::Bin { a, b, .. } => {
            operand(a, &mut visit);
            operand(b, &mut visit);
        }
        IrOp::Un { a, .. } => operand(a, &mut visit),
        IrOp::Copy { src, .. } => operand(src, &mut visit),
        IrOp::Load { base, index, .. } => {
            if let MemBase::Param(t) = base {
                visit(*t);
            }
            operand(index, &mut visit);
        }
        IrOp::Store { base, index, value } => {
            if let MemBase::Param(t) = base {
                visit(*t);
            }
            operand(index, &mut visit);
            operand(value, &mut visit);
        }
        IrOp::Call { args, .. } => {
            for arg in args {
                match arg {
                    CallArg::Value(v) => operand(v, &mut visit),
                    CallArg::ArrayRef(MemBase::Param(t)) => visit(*t),
                    CallArg::ArrayRef(_) => {}
                }
            }
        }
        IrOp::Select { cond, t, f, .. } => {
            operand(cond, &mut visit);
            operand(t, &mut visit);
            operand(f, &mut visit);
        }
        IrOp::In { .. } => {}
        IrOp::Out { value, .. } => operand(value, &mut visit),
    }
}

/// Visit every value operand of an op mutably (operands, memory indices,
/// call value arguments), so a pass can rewrite them in place. Array
/// bases are temps, not operands, and are not visited.
pub fn for_each_operand_mut(op: &mut IrOp, mut visit: impl FnMut(&mut Operand)) {
    match op {
        IrOp::Bin { a, b, .. } => {
            visit(a);
            visit(b);
        }
        IrOp::Un { a, .. } => visit(a),
        IrOp::Copy { src, .. } => visit(src),
        IrOp::Load { index, .. } => visit(index),
        IrOp::Store { index, value, .. } => {
            visit(index);
            visit(value);
        }
        IrOp::Call { args, .. } => {
            for arg in args {
                if let CallArg::Value(v) = arg {
                    visit(v);
                }
            }
        }
        IrOp::Select { cond, t, f, .. } => {
            visit(cond);
            visit(t);
            visit(f);
        }
        IrOp::In { .. } => {}
        IrOp::Out { value, .. } => visit(value),
    }
}

/// Visit every temp an op *writes* (at most one).
pub fn for_each_write(op: &IrOp, mut visit: impl FnMut(Temp)) {
    match op {
        IrOp::Bin { dst, .. }
        | IrOp::Un { dst, .. }
        | IrOp::Copy { dst, .. }
        | IrOp::Load { dst, .. }
        | IrOp::Select { dst, .. }
        | IrOp::In { dst, .. } => visit(*dst),
        IrOp::Call { dst: Some(d), .. } => visit(*d),
        IrOp::Call { dst: None, .. } | IrOp::Store { .. } | IrOp::Out { .. } => {}
    }
}

/// Visit every temp a terminator reads.
pub fn for_each_term_read(term: &IrTerm, mut visit: impl FnMut(Temp)) {
    match term {
        IrTerm::Branch {
            cond: Operand::Temp(t),
            ..
        }
        | IrTerm::Ret(Some(Operand::Temp(t))) => visit(*t),
        _ => {}
    }
}
