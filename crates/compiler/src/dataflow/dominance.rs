//! The immediate-dominator tree with O(1) `dominates` queries.
//!
//! [`DomTree`] wraps `teamplay_minic::cfg::immediate_dominators` (the
//! Cooper/Harvey/Kennedy iterative fixpoint over reverse postorder) and
//! adds the two things passes actually query: explicit children lists
//! and a DFS pre/post interval numbering of the tree, so `a dom b`
//! reduces to two integer comparisons instead of an idom-chain walk.

use teamplay_minic::cfg::{self, CfgView};

/// The dominator tree of one control-flow graph.
///
/// Unreachable blocks are outside the tree: they are reported by
/// [`DomTree::is_reachable`] and dominate nothing (not even
/// themselves). The entry block dominates every reachable block.
#[derive(Clone, Debug)]
pub struct DomTree {
    entry: usize,
    /// `idom[b]` — immediate dominator, `idom[entry] == entry`,
    /// `usize::MAX` for unreachable blocks.
    idom: Vec<usize>,
    children: Vec<Vec<usize>>,
    /// DFS entry/exit stamps over the tree; 0 marks unreachable.
    pre: Vec<u32>,
    post: Vec<u32>,
    rpo: Vec<usize>,
}

impl DomTree {
    /// Build the dominator tree of `g`.
    pub fn build(g: &impl CfgView) -> DomTree {
        let idom = cfg::immediate_dominators(g);
        let entry = g.entry();
        let n = idom.len();
        let mut children = vec![Vec::new(); n];
        for (b, &d) in idom.iter().enumerate() {
            if b != entry && d != usize::MAX {
                children[d].push(b);
            }
        }
        let mut pre = vec![0u32; n];
        let mut post = vec![0u32; n];
        let mut clock = 0u32;
        let mut stack: Vec<(usize, usize)> = Vec::new();
        if n > 0 {
            clock += 1;
            pre[entry] = clock;
            stack.push((entry, 0));
        }
        while let Some(top) = stack.last_mut() {
            let (b, next) = *top;
            if next < children[b].len() {
                top.1 += 1;
                let c = children[b][next];
                clock += 1;
                pre[c] = clock;
                stack.push((c, 0));
            } else {
                clock += 1;
                post[b] = clock;
                stack.pop();
            }
        }
        DomTree {
            entry,
            idom,
            children,
            pre,
            post,
            rpo: cfg::reverse_postorder(g),
        }
    }

    /// The entry block.
    pub fn entry(&self) -> usize {
        self.entry
    }

    /// Number of blocks (reachable or not) the tree was built over.
    pub fn num_blocks(&self) -> usize {
        self.idom.len()
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: usize) -> bool {
        b < self.pre.len() && self.pre[b] != 0
    }

    /// The immediate dominator of `b` (`None` for the entry and for
    /// unreachable blocks).
    pub fn idom(&self, b: usize) -> Option<usize> {
        if b == self.entry || !self.is_reachable(b) {
            None
        } else {
            Some(self.idom[b])
        }
    }

    /// Blocks immediately dominated by `b`.
    pub fn children(&self, b: usize) -> &[usize] {
        &self.children[b]
    }

    /// Does `a` dominate `b`? Reflexive (`a dom a`) on reachable
    /// blocks; always `false` when either block is unreachable.
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        self.is_reachable(a)
            && self.is_reachable(b)
            && self.pre[a] <= self.pre[b]
            && self.post[b] <= self.post[a]
    }

    /// A reverse postorder of the reachable blocks (the iteration order
    /// of choice for forward dataflow fixpoints).
    pub fn rpo(&self) -> &[usize] {
        &self.rpo
    }
}
