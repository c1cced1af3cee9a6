//! Forward must-availability: the one solver behind `gvn` and
//! `load_fwd`.
//!
//! A client pass numbers its facts `0..n` and describes each op as a
//! gen/kill transfer `x ↦ (x − kill) ∪ gen` whose kill and gen sets do
//! not depend on `x`. Such transfers compose, so the ops of a block fold
//! into one [`Transfer`] summary, built once per run. [`forward_must`]
//! then iterates the summaries in reverse postorder with meet = ∩,
//! entry = ∅ and every other block initialised full, to the maximal
//! fixpoint. Per-op transfer is left to the client's replacement walk,
//! which starts each block from its solved in-set.
//!
//! Both a live fact set ([`BitSet`]) and a summary under construction
//! ([`Transfer`]) implement [`GenKill`], so a client writes its per-op
//! rule once and applies it to either.

use super::BitSet;

/// A target of gen/kill effects: a live fact set, or a block summary
/// being composed op by op.
pub trait GenKill {
    /// Make fact `id` available.
    fn gen(&mut self, id: usize);
    /// Make fact `id` unavailable.
    fn kill(&mut self, id: usize);
    /// Make every fact in `ids` unavailable.
    fn kill_set(&mut self, ids: &BitSet);
    /// Make every fact unavailable.
    fn kill_all(&mut self);
}

impl GenKill for BitSet {
    fn gen(&mut self, id: usize) {
        self.insert(id);
    }
    fn kill(&mut self, id: usize) {
        self.remove(id);
    }
    fn kill_set(&mut self, ids: &BitSet) {
        self.subtract(ids);
    }
    fn kill_all(&mut self) {
        self.clear();
    }
}

/// The composed transfer of a run of ops: `out = (in − kill) ∪ gen`.
#[derive(Clone, Debug)]
pub struct Transfer {
    gen: BitSet,
    kill: BitSet,
}

impl Transfer {
    /// The identity transfer over the universe `0..n`.
    fn identity(n: usize) -> Transfer {
        Transfer {
            gen: BitSet::new(n),
            kill: BitSet::new(n),
        }
    }

    /// Write `(inn − kill) ∪ gen` into `out`; returns `true` if `out`
    /// changed.
    fn apply(&self, inn: &BitSet, out: &mut BitSet) -> bool {
        let mut changed = false;
        for (((o, i), k), g) in out
            .words
            .iter_mut()
            .zip(&inn.words)
            .zip(&self.kill.words)
            .zip(&self.gen.words)
        {
            let next = (i & !k) | g;
            changed |= next != *o;
            *o = next;
        }
        changed
    }
}

impl GenKill for Transfer {
    fn gen(&mut self, id: usize) {
        self.gen.insert(id);
    }
    fn kill(&mut self, id: usize) {
        self.gen.remove(id);
        self.kill.insert(id);
    }
    fn kill_set(&mut self, ids: &BitSet) {
        self.gen.subtract(ids);
        self.kill.union_with(ids);
    }
    fn kill_all(&mut self) {
        self.gen.clear();
        self.kill.fill();
    }
}

/// Solve a forward must-analysis over `n` facts.
///
/// `rpo` lists the reachable blocks in reverse postorder, entry first;
/// `preds[b]` are the predecessors of block `b`. `summarise(b, t)` folds
/// the ops of block `b` into the identity transfer `t`; it runs once per
/// reachable block. Returns the in-set of every block: ∅ at the entry,
/// the full set at unreachable blocks.
pub fn forward_must(
    n: usize,
    rpo: &[usize],
    preds: &[Vec<usize>],
    mut summarise: impl FnMut(usize, &mut Transfer),
) -> Vec<BitSet> {
    let summaries: Vec<Transfer> = rpo
        .iter()
        .map(|&b| {
            let mut t = Transfer::identity(n);
            summarise(b, &mut t);
            t
        })
        .collect();
    let mut avail_in = vec![BitSet::full(n); preds.len()];
    let mut avail_out = avail_in.clone();
    let Some(&entry) = rpo.first() else {
        return avail_in;
    };
    avail_in[entry].clear();
    loop {
        let mut changed = false;
        for (&b, t) in rpo.iter().zip(&summaries) {
            if b != entry {
                let inn = &mut avail_in[b];
                inn.fill();
                for &p in &preds[b] {
                    inn.intersect_with(&avail_out[p]);
                }
            }
            changed |= t.apply(&avail_in[b], &mut avail_out[b]);
        }
        if !changed {
            return avail_in;
        }
    }
}
