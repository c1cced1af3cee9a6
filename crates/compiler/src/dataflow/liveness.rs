//! Global liveness of IR temps: per-block live-in/live-out sets.
//!
//! The classic backward may-analysis: a temp is live at a point when
//! some path from that point reads it before writing it. Solved as the
//! usual `in[b] = use[b] ∪ (out[b] − def[b])`, `out[b] = ∪ in[succ]`
//! fixpoint, iterated in postorder (the backward-friendly order) until
//! stable. Terminator reads (branch conditions, return values) belong
//! to their block's `use` set like any op read.
//!
//! The consumer that motivated this analysis is register coalescing at
//! the IR→ISA transfer ([`crate::codegen`]): two copy-related temps
//! whose live ranges never overlap can share one home, turning the
//! copy into nothing at all.

use super::{for_each_read, for_each_term_read, for_each_write, BitSet};
use teamplay_minic::cfg::{self, CfgView};
use teamplay_minic::ir::{IrFunction, Temp};

/// Per-block liveness sets over the temps of one function.
#[derive(Clone, Debug)]
pub struct Liveness {
    live_in: Vec<BitSet>,
    live_out: Vec<BitSet>,
}

impl Liveness {
    /// Solve liveness for `f`.
    pub fn build(f: &IrFunction) -> Liveness {
        let n = f.blocks.len();
        let temps = f.temp_count as usize;
        let mut use_of = vec![BitSet::new(temps); n];
        let mut def_of = vec![BitSet::new(temps); n];
        for (bi, b) in f.blocks.iter().enumerate() {
            let (uses, defs) = (&mut use_of[bi], &mut def_of[bi]);
            for op in &b.ops {
                for_each_read(op, |t| {
                    if !defs.contains(t.0 as usize) {
                        uses.insert(t.0 as usize);
                    }
                });
                for_each_write(op, |t| {
                    defs.insert(t.0 as usize);
                });
            }
            for_each_term_read(&b.term, |t| {
                if !defs.contains(t.0 as usize) {
                    uses.insert(t.0 as usize);
                }
            });
        }

        let mut live_in = vec![BitSet::new(temps); n];
        let mut live_out = vec![BitSet::new(temps); n];
        // Postorder (reverse of RPO) converges fastest for a backward
        // problem; unreachable blocks are appended so their sets are
        // still defined (they converge in one visit).
        let rpo = cfg::reverse_postorder(f);
        let mut order: Vec<usize> = rpo.iter().rev().copied().collect();
        let in_rpo: std::collections::HashSet<usize> = rpo.iter().copied().collect();
        order.extend((0..n).filter(|b| !in_rpo.contains(b)));
        loop {
            let mut changed = false;
            for &b in &order {
                let mut out = BitSet::new(temps);
                for s in f.successors(b) {
                    out.union_with(&live_in[s]);
                }
                let mut inn = out.clone();
                inn.subtract(&def_of[b]);
                inn.union_with(&use_of[b]);
                changed |= live_out[b] != out || live_in[b] != inn;
                live_out[b] = out;
                live_in[b] = inn;
            }
            if !changed {
                return Liveness { live_in, live_out };
            }
        }
    }

    /// Temps live on entry to block `b`.
    pub fn live_in(&self, b: usize) -> &BitSet {
        &self.live_in[b]
    }

    /// Temps live on exit from block `b` (the union of its successors'
    /// live-in sets).
    pub fn live_out(&self, b: usize) -> &BitSet {
        &self.live_out[b]
    }

    /// Is `t` live on entry to block `b`?
    pub fn is_live_in(&self, b: usize, t: Temp) -> bool {
        self.live_in[b].contains(t.0 as usize)
    }
}
