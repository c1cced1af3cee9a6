//! Generic control-flow-graph analyses.
//!
//! These algorithms are shared by the IR-level passes in
//! `teamplay-compiler` and by the binary-level WCET/energy analysers in
//! `teamplay-wcet` / `teamplay-energy` (which implement [`CfgView`] for
//! PG32 functions): reverse postorder, immediate dominators (the classic
//! Cooper–Harvey–Kennedy iteration) and natural-loop discovery.

use std::collections::BTreeSet;

/// Minimal read-only view of a CFG with blocks numbered `0..num_blocks()`.
pub trait CfgView {
    /// Number of blocks.
    fn num_blocks(&self) -> usize;
    /// Entry block index.
    fn entry(&self) -> usize;
    /// Successor block indices of `block`.
    fn successors(&self, block: usize) -> Vec<usize>;
}

impl CfgView for crate::ir::IrFunction {
    fn num_blocks(&self) -> usize {
        self.blocks.len()
    }
    fn entry(&self) -> usize {
        0
    }
    fn successors(&self, block: usize) -> Vec<usize> {
        self.blocks[block]
            .term
            .successors()
            .iter()
            .map(|b| b.index())
            .collect()
    }
}

/// Predecessor lists for every block.
pub fn predecessors<G: CfgView>(g: &G) -> Vec<Vec<usize>> {
    let mut preds = vec![Vec::new(); g.num_blocks()];
    for b in 0..g.num_blocks() {
        for s in g.successors(b) {
            preds[s].push(b);
        }
    }
    preds
}

/// Blocks in reverse postorder from the entry; unreachable blocks are
/// omitted.
pub fn reverse_postorder<G: CfgView>(g: &G) -> Vec<usize> {
    let n = g.num_blocks();
    let mut visited = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // Iterative DFS with an explicit "children done" marker.
    let mut stack: Vec<(usize, bool)> = vec![(g.entry(), false)];
    while let Some((node, done)) = stack.pop() {
        if done {
            post.push(node);
            continue;
        }
        if visited[node] {
            continue;
        }
        visited[node] = true;
        stack.push((node, true));
        let succs = g.successors(node);
        for s in succs.into_iter().rev() {
            if !visited[s] {
                stack.push((s, false));
            }
        }
    }
    post.reverse();
    post
}

/// Immediate dominators, indexed by block (`idom[entry] == entry`).
/// Unreachable blocks map to `usize::MAX`.
pub fn immediate_dominators<G: CfgView>(g: &G) -> Vec<usize> {
    let n = g.num_blocks();
    let rpo = reverse_postorder(g);
    let mut rpo_index = vec![usize::MAX; n];
    for (i, b) in rpo.iter().enumerate() {
        rpo_index[*b] = i;
    }
    let preds = predecessors(g);
    let mut idom = vec![usize::MAX; n];
    idom[g.entry()] = g.entry();

    let intersect = |idom: &[usize], rpo_index: &[usize], mut a: usize, mut b: usize| -> usize {
        while a != b {
            while rpo_index[a] > rpo_index[b] {
                a = idom[a];
            }
            while rpo_index[b] > rpo_index[a] {
                b = idom[b];
            }
        }
        a
    };

    let mut changed = true;
    while changed {
        changed = false;
        for &b in &rpo {
            if b == g.entry() {
                continue;
            }
            let mut new_idom = usize::MAX;
            for &p in &preds[b] {
                if idom[p] == usize::MAX {
                    continue; // predecessor not yet processed / unreachable
                }
                new_idom = if new_idom == usize::MAX {
                    p
                } else {
                    intersect(&idom, &rpo_index, new_idom, p)
                };
            }
            if new_idom != usize::MAX && idom[b] != new_idom {
                idom[b] = new_idom;
                changed = true;
            }
        }
    }
    idom
}

/// Does `a` dominate `b`? (Both must be reachable.)
pub fn dominates(idom: &[usize], entry: usize, a: usize, mut b: usize) -> bool {
    loop {
        if a == b {
            return true;
        }
        if b == entry || idom[b] == usize::MAX {
            return false;
        }
        b = idom[b];
    }
}

/// A natural loop: its header and the set of blocks in its body
/// (including the header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header (the target of the back edge).
    pub header: usize,
    /// All blocks in the loop, header included.
    pub body: BTreeSet<usize>,
}

/// Discover natural loops via back edges (`latch → header` where the
/// header dominates the latch). Loops sharing a header are merged, as is
/// conventional.
pub fn natural_loops<G: CfgView>(g: &G) -> Vec<NaturalLoop> {
    let idom = immediate_dominators(g);
    let preds = predecessors(g);
    let entry = g.entry();
    let mut loops: Vec<NaturalLoop> = Vec::new();
    let reachable: Vec<bool> = {
        let mut r = vec![false; g.num_blocks()];
        for b in reverse_postorder(g) {
            r[b] = true;
        }
        r
    };
    for b in 0..g.num_blocks() {
        if !reachable[b] {
            continue;
        }
        for s in g.successors(b) {
            if dominates(&idom, entry, s, b) {
                // Back edge b -> s; collect the loop body by walking
                // predecessors from the latch until the header.
                let header = s;
                let mut body: BTreeSet<usize> = BTreeSet::new();
                body.insert(header);
                let mut stack = vec![b];
                while let Some(x) = stack.pop() {
                    if body.insert(x) {
                        for &p in &preds[x] {
                            if reachable[p] {
                                stack.push(p);
                            }
                        }
                    }
                }
                if let Some(existing) = loops.iter_mut().find(|l| l.header == header) {
                    existing.body.extend(body);
                } else {
                    loops.push(NaturalLoop { header, body });
                }
            }
        }
    }
    // Sort by header for deterministic downstream iteration.
    loops.sort_by_key(|l| l.header);
    loops
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny adjacency-list CFG for direct testing.
    struct TestCfg {
        succs: Vec<Vec<usize>>,
    }

    impl CfgView for TestCfg {
        fn num_blocks(&self) -> usize {
            self.succs.len()
        }
        fn entry(&self) -> usize {
            0
        }
        fn successors(&self, block: usize) -> Vec<usize> {
            self.succs[block].clone()
        }
    }

    /// 0 -> 1 -> 2 -> 1 (loop), 2 -> 3
    fn single_loop() -> TestCfg {
        TestCfg {
            succs: vec![vec![1], vec![2], vec![1, 3], vec![]],
        }
    }

    /// Nested: 0 -> 1(h1) -> 2(h2) -> 3 -> 2, 3 -> 1 exit path 1 -> 4
    fn nested_loops() -> TestCfg {
        TestCfg {
            succs: vec![vec![1], vec![2, 4], vec![3], vec![2, 1], vec![]],
        }
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let g = single_loop();
        let rpo = reverse_postorder(&g);
        assert_eq!(rpo[0], 0);
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn rpo_omits_unreachable() {
        let g = TestCfg {
            succs: vec![vec![1], vec![], vec![1]],
        };
        let rpo = reverse_postorder(&g);
        assert_eq!(rpo, vec![0, 1]);
    }

    #[test]
    fn dominators_of_diamond() {
        // 0 -> {1,2} -> 3
        let g = TestCfg {
            succs: vec![vec![1, 2], vec![3], vec![3], vec![]],
        };
        let idom = immediate_dominators(&g);
        assert_eq!(idom[1], 0);
        assert_eq!(idom[2], 0);
        assert_eq!(idom[3], 0);
        assert!(dominates(&idom, 0, 0, 3));
        assert!(!dominates(&idom, 0, 1, 3));
    }

    #[test]
    fn finds_single_loop() {
        let loops = natural_loops(&single_loop());
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].header, 1);
        assert_eq!(loops[0].body, BTreeSet::from([1, 2]));
    }

    #[test]
    fn finds_nested_loops_and_parents() {
        let loops = natural_loops(&nested_loops());
        assert_eq!(loops.len(), 2);
        // Inner loop (header 2) is inside outer loop (header 1), and
        // the outer loop is inside nothing.
        let outer = loops.iter().position(|l| l.header == 1).expect("outer");
        let inner = loops.iter().position(|l| l.header == 2).expect("inner");
        assert!(loops[outer].body.contains(&loops[inner].header));
        assert!(!loops[inner].body.contains(&loops[outer].header));
        assert!(loops[outer].body.is_superset(&loops[inner].body));
    }

    #[test]
    fn self_loop_is_detected() {
        let g = TestCfg {
            succs: vec![vec![1], vec![1, 2], vec![]],
        };
        let loops = natural_loops(&g);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].header, 1);
        assert_eq!(loops[0].body, BTreeSet::from([1]));
    }

    #[test]
    fn acyclic_graph_has_no_loops() {
        let g = TestCfg {
            succs: vec![vec![1, 2], vec![3], vec![3], vec![]],
        };
        assert!(natural_loops(&g).is_empty());
    }
}
