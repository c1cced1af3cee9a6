//! The analysis engine: one flow structure per function, solved for any
//! number of cost lanes under either [`Preset`].
//!
//! Implicit path enumeration (IPET) phrases a worst-case bound as a
//! maximum-cost flow problem over the CFG: every block and every edge
//! carries an execution-count variable, Kirchhoff conservation ties the
//! counts together, loop-bound facts cap the back-edge counts, and the
//! objective maximises `Σ count × cost`. Industrial toolchains (aiT, the
//! WCC the paper builds on) hand that LP to an external solver; this
//! module solves it *exactly* for reducible CFGs with an in-tree
//! loop-nest dynamic program — no LP crate, consistent with the
//! repository's vendored-offline rule.
//!
//! [`FlowStructure::of`] prepares everything a bound needs but the
//! costs: reachability, the natural loops in condensation order
//! (innermost first), the edges with the predicates of their branches,
//! and each block's register write mask. [`FlowStructure::solve`] then
//! prices it with `L` [`CostLane`]s and runs the loop-nest DP once for
//! all of them: the DFS orders and value contexts are shared, and each
//! lane keeps its own saturating sums and maxima, so a lane's bound does
//! not depend on the lanes solved beside it.
//!
//! ## The loop-nest dynamic program
//!
//! Natural loops are condensed innermost-first. Under [`Preset::Ipet`]
//! the condensation is count-exact:
//!
//! * one loop entry admits at most `bound` back-edge traversals, so the
//!   condensed node costs `bound × best-latch-circuit` — the header is
//!   charged `bound + 1` times in total (once on the final exit check);
//! * every exit edge `(u → v)` of the loop becomes an edge of the outer
//!   graph weighted `maxpath(header → u) + cost(u → v)`, so the final
//!   partial traversal is charged along its own (possibly much cheaper)
//!   path instead of the worst full iteration;
//! * a `return` inside a loop body becomes the condensed node's own
//!   terminal cost (`maxpath(header → ret-block) + ret-cost`).
//!
//! This is the LP optimum: a max-cost flow on a DAG decomposes into
//! paths, `bound` of which circle through the most expensive latch
//! circuit while the single exit unit takes the most expensive exit
//! path. Terminator costs ride the edges, so a fall-through pays the
//! not-taken cost.
//!
//! [`Preset::Structural`] is the pre-IPET baseline on the same
//! condensation: every block pays its worst terminator, edges are free,
//! no infeasible-path fact is used, and a loop costs `(bound + 1) ×` its
//! worst iteration path (the deepest path from its header).
//!
//! ## Infeasible-path facts
//!
//! Mutually exclusive branches — two conditional branches in one region
//! testing the *same unwritten register* against immediates — are
//! handled by context enumeration: the immediates partition the
//! register's value space into intervals, one longest path is computed
//! per interval cell (edges whose predicate is false in the cell are
//! removed), and the maximum over cells is the bound. Because every
//! concrete execution fixes the register to a value in exactly one
//! cell, the maximum is still a safe upper bound, and it excludes the
//! `x < 3 ∧ x ≥ 7`-style path combinations the structural preset (and
//! plain conservation constraints) must admit. Registers written
//! anywhere in the region — including by calls, which are treated as
//! clobbering every register — are never correlated.
//!
//! Irreducible control flow (a cycle that is not a natural loop) makes
//! the region DP cyclic, and the solve fails with
//! [`WcetError::IrreducibleCfg`]. Both presets condense the same loops in
//! the same order, and a cycle the IPET DP meets is a cycle of the
//! structural one too, so there is nothing to fall back to.

use crate::{CostLane, Preset, WcetError};
use std::collections::BTreeSet;
use teamplay_isa::{BlockId, Cond, Function, Insn, Operand, Reg, Terminator};
use teamplay_minic::cfg::{natural_loops, reverse_postorder, CfgView, NaturalLoop};

/// Hard cap on the number of value contexts enumerated per region; the
/// cross product of correlated registers is trimmed (dropping facts,
/// never soundness) to stay below it.
const MAX_CONTEXTS: usize = 64;

/// A branch predicate: `reg cond imm` must hold for the edge to be taken.
type Pred = Option<(Reg, i32, Cond)>;

/// One value context: a candidate value per correlated register.
type Context = Vec<(Reg, i64)>;

/// Which terminator cost one traversal of a CFG edge pays.
#[derive(Debug, Clone, Copy)]
enum Via {
    Taken,
    NotTaken,
    /// A conditional branch whose two arms meet: the dearer of the two.
    Either,
}

/// A CFG edge before pricing.
#[derive(Debug, Clone, Copy)]
struct Edge {
    to: usize,
    via: Via,
    pred: Pred,
}

/// An edge of the condensed graph: target block, per-lane traversal
/// cost, and the predicate feeding the infeasible-path analysis.
#[derive(Debug, Clone, Copy)]
struct CostEdge<const L: usize> {
    to: usize,
    cost: [u64; L],
    pred: Pred,
}

/// Everything one function's bound needs except the costs.
pub(crate) struct FlowStructure<'f> {
    f: &'f Function,
    reachable: Vec<bool>,
    /// The natural loops, innermost (smallest body) first.
    loops: Vec<NaturalLoop>,
    /// Outgoing edges of every reachable block; none for the rest.
    edges: Vec<Vec<Edge>>,
    /// Bitmask of registers each block may write (calls clobber all).
    writes: Vec<u16>,
}

/// Adapter giving the generic CFG algorithms a view of a PG32 function.
struct FnView<'a>(&'a Function);

impl CfgView for FnView<'_> {
    fn num_blocks(&self) -> usize {
        self.0.blocks.len()
    }
    fn entry(&self) -> usize {
        0
    }
    fn successors(&self, block: usize) -> Vec<usize> {
        self.0.blocks[block]
            .terminator
            .successors()
            .iter()
            .map(|b| b.index())
            .collect()
    }
}

/// Registers an instruction may write, as a 16-bit mask; `None` means
/// "assume everything" (calls).
fn write_mask(insn: &Insn) -> Option<u16> {
    let bit = |r: Reg| 1u16 << r.index();
    Some(match insn {
        Insn::Alu { rd, .. }
        | Insn::Mov { rd, .. }
        | Insn::MovImm32 { rd, .. }
        | Insn::Csel { rd, .. }
        | Insn::Ldr { rd, .. }
        | Insn::In { rd, .. } => bit(*rd),
        Insn::Pop { regs } => regs.iter().fold(bit(Reg::SP), |m, r| m | bit(*r)),
        Insn::Push { .. } => bit(Reg::SP),
        Insn::Call { .. } => return None,
        Insn::Cmp { .. } | Insn::Str { .. } | Insn::Out { .. } | Insn::Nop => 0,
    })
}

/// The edges leaving a block. A trailing `cmp reg, #imm` makes a
/// conditional branch's predicate explicit; whether it is *usable* is
/// decided per region by the write masks.
fn block_edges(insns: &[Insn], terminator: &Terminator) -> Vec<Edge> {
    let guard = match insns.last() {
        Some(Insn::Cmp {
            rn,
            src: Operand::Imm(imm),
        }) => Some((*rn, *imm)),
        _ => None,
    };
    let edge = |to: &BlockId, via, pred| Edge {
        to: to.index(),
        via,
        pred,
    };
    match terminator {
        Terminator::Branch(t) => vec![edge(t, Via::Taken, None)],
        Terminator::CondBranch {
            taken, fallthrough, ..
        } if taken == fallthrough => vec![edge(taken, Via::Either, None)],
        Terminator::CondBranch {
            cond,
            taken,
            fallthrough,
        } => vec![
            edge(taken, Via::Taken, guard.map(|(r, imm)| (r, imm, *cond))),
            edge(
                fallthrough,
                Via::NotTaken,
                guard.map(|(r, imm)| (r, imm, cond.negate())),
            ),
        ],
        Terminator::Return | Terminator::Halt => Vec::new(),
    }
}

/// Lane-wise saturating sum.
fn add<const L: usize>(a: [u64; L], b: [u64; L]) -> [u64; L] {
    std::array::from_fn(|k| a[k].saturating_add(b[k]))
}

/// Lane-wise maximum.
fn max<const L: usize>(a: [u64; L], b: [u64; L]) -> [u64; L] {
    std::array::from_fn(|k| a[k].max(b[k]))
}

impl<'f> FlowStructure<'f> {
    /// Prepare `f`'s flow structure.
    pub(crate) fn of(f: &'f Function) -> FlowStructure<'f> {
        let view = FnView(f);
        let mut reachable = vec![false; f.blocks.len()];
        for b in reverse_postorder(&view) {
            reachable[b] = true;
        }
        let mut loops = natural_loops(&view);
        loops.sort_by_key(|l| l.body.len());
        let edges = f
            .blocks
            .iter()
            .zip(&reachable)
            .map(|(b, &live)| {
                if live {
                    block_edges(&b.insns, &b.terminator)
                } else {
                    Vec::new()
                }
            })
            .collect();
        let writes = f
            .blocks
            .iter()
            .map(|b| {
                b.insns.iter().fold(0u16, |m, insn| match write_mask(insn) {
                    Some(w) => m | w,
                    None => u16::MAX,
                })
            })
            .collect();
        FlowStructure {
            f,
            reachable,
            loops,
            edges,
            writes,
        }
    }

    /// The function's bound in every lane under `preset`. `callee(k,
    /// name)` is the bound of the called function `name` in lane `k`.
    ///
    /// # Errors
    /// [`WcetError::UnboundedLoop`] for the first loop in condensation
    /// order without a bound, [`WcetError::IrreducibleCfg`] when a cycle
    /// survives condensation.
    pub(crate) fn solve<const L: usize>(
        &self,
        preset: Preset,
        lanes: &[&dyn CostLane; L],
        callee: &dyn Fn(usize, &str) -> u64,
    ) -> Result<[u64; L], WcetError> {
        let f = self.f;
        let n = f.blocks.len();
        let ipet = preset == Preset::Ipet;
        let term = |t: &Terminator, via: Via| -> [u64; L] {
            std::array::from_fn(|k| match via {
                Via::Taken => lanes[k].terminator(t, true),
                Via::NotTaken => lanes[k].terminator(t, false),
                Via::Either => lanes[k]
                    .terminator(t, true)
                    .max(lanes[k].terminator(t, false)),
            })
        };

        // The priced graph, condensed in place. The structural preset
        // folds the worst terminator into each block and leaves the
        // edges free.
        let mut g = Graph {
            node_of: (0..n).collect(),
            cost: vec![[0; L]; n],
            edges: Vec::with_capacity(n),
            exit: vec![None; n],
            writes: self.writes.clone(),
        };
        for (i, (b, out)) in f.blocks.iter().zip(&self.edges).enumerate() {
            g.edges.push(
                out.iter()
                    .map(|e| CostEdge {
                        to: e.to,
                        cost: if ipet {
                            term(&b.terminator, e.via)
                        } else {
                            [0; L]
                        },
                        pred: e.pred,
                    })
                    .collect(),
            );
            if !self.reachable[i] {
                continue;
            }
            let body = std::array::from_fn(|k| lanes[k].body(&b.insns, &|name| callee(k, name)));
            if !ipet {
                g.cost[i] = add(body, term(&b.terminator, Via::Either));
                continue;
            }
            g.cost[i] = body;
            if matches!(b.terminator, Terminator::Return | Terminator::Halt) {
                g.exit[i] = Some(term(&b.terminator, Via::Taken));
            }
        }

        for l in &self.loops {
            let header = g.node_of[l.header];
            let bound = *f
                .loop_bounds
                .get(&BlockId(l.header as u32))
                .ok_or_else(|| WcetError::UnboundedLoop {
                    function: f.name.clone(),
                    header: l.header as u32,
                })?;
            let members: BTreeSet<usize> = l.body.iter().map(|b| g.node_of[*b]).collect();
            let out = Region {
                g: &g,
                members: &members,
                start: header,
                facts: ipet,
            }
            .analyse(&f.name)?;

            // Condense into the header's id. IPET: `bound` worst latch
            // circuits, per-exit-edge weighted continuations, and the
            // worst in-loop termination as the node's own exit cost.
            // Structural: `bound + 1` worst iterations, free exits.
            let bound = u64::from(bound);
            if ipet {
                g.cost[header] = out.latch.map(|c| c.saturating_mul(bound));
                g.edges[header] = out.external;
            } else {
                g.cost[header] = out.deepest.map(|c| c.saturating_mul(bound + 1));
                g.edges[header] = out
                    .external
                    .into_iter()
                    .map(|e| CostEdge { cost: [0; L], ..e })
                    .collect();
            }
            g.exit[header] = out.exit;
            g.writes[header] = members.iter().fold(0u16, |m, s| m | g.writes[*s]);
            for node in g.node_of.iter_mut() {
                if members.contains(node) {
                    *node = header;
                }
            }
        }

        // Top level: one DAG pass over the condensed graph.
        let members: BTreeSet<usize> = (0..n)
            .filter(|&b| self.reachable[b])
            .map(|b| g.node_of[b])
            .collect();
        let out = Region {
            g: &g,
            members: &members,
            start: g.node_of[0],
            facts: ipet,
        }
        .analyse(&f.name)?;
        // A CFG with no reachable `ret`/`halt` (and every structural
        // bound) takes the longest path to anywhere.
        Ok(out.exit.unwrap_or(out.deepest))
    }
}

/// The priced graph as it condenses: every block maps to its current
/// super-node (loop headers double as super-node ids), whose cost,
/// edges, exit cost and writes evolve as loops collapse.
struct Graph<const L: usize> {
    node_of: Vec<usize>,
    cost: Vec<[u64; L]>,
    edges: Vec<Vec<CostEdge<L>>>,
    /// The cost of *ending* the function at a node — `Some` only where
    /// a `ret`/`halt` is reachable within it (IPET only).
    exit: Vec<Option<[u64; L]>>,
    writes: Vec<u16>,
}

/// One acyclic region of the condensed graph: a loop body (start = the
/// header) or the whole top level (start = the entry's super-node).
struct Region<'a, const L: usize> {
    g: &'a Graph<L>,
    members: &'a BTreeSet<usize>,
    start: usize,
    /// Whether infeasible-path facts are used (the IPET preset).
    facts: bool,
}

/// What a region DP produces per lane, maximised over contexts.
struct RegionOut<const L: usize> {
    /// Worst latch circuit: `maxpath(start → t) + cost(t → start)`.
    /// Zero when the region has no back edge (the top level).
    latch: [u64; L],
    /// Region-leaving edges, reweighted with their internal prefix
    /// path: `maxpath(start → u) + cost(u → v)`.
    external: Vec<CostEdge<L>>,
    /// Worst terminating path (`maxpath(start → m) + exit(m)`), or
    /// `None` when no member can end the function.
    exit: Option<[u64; L]>,
    /// Worst path to anywhere in the region, terminating or not.
    deepest: [u64; L],
}

impl<const L: usize> Region<'_, L> {
    /// An edge's resolved target super-node.
    fn target(&self, e: &CostEdge<L>) -> usize {
        self.g.node_of[e.to]
    }

    /// The value contexts to enumerate: registers tested by at least
    /// two predicated edges of the region and written by no member,
    /// each with the candidate values that cover every interval cell
    /// of its immediates. One empty context (a single unconstrained
    /// pass) when no fact is usable or facts are off.
    fn contexts(&self) -> Vec<Context> {
        if !self.facts {
            return vec![Vec::new()];
        }
        let region_mask = self.members.iter().fold(0u16, |m, s| m | self.g.writes[*s]);
        let mut imms: std::collections::BTreeMap<Reg, (BTreeSet<i64>, usize)> = Default::default();
        for &m in self.members {
            let mut seen_here: BTreeSet<Reg> = BTreeSet::new();
            for e in &self.g.edges[m] {
                if let Some((r, imm, _)) = e.pred {
                    if region_mask & (1 << r.index()) == 0 {
                        let (points, branches) = imms.entry(r).or_default();
                        points.insert(i64::from(imm));
                        if seen_here.insert(r) {
                            *branches += 1;
                        }
                    }
                }
            }
        }
        let mut contexts: Vec<Context> = vec![Vec::new()];
        // A register tested by a single branch cannot produce an
        // exclusivity fact: the max over its half-spaces equals the
        // unconstrained max.
        for (r, (points, _)) in imms.into_iter().filter(|(_, (_, b))| *b >= 2) {
            let candidates: BTreeSet<i64> =
                points.iter().flat_map(|p| [p - 1, *p, p + 1]).collect();
            if contexts.len().saturating_mul(candidates.len()) > MAX_CONTEXTS {
                break; // drop remaining facts, keep soundness
            }
            contexts = contexts
                .into_iter()
                .flat_map(|ctx| {
                    candidates.iter().map(move |v| {
                        let mut c = ctx.clone();
                        c.push((r, *v));
                        c
                    })
                })
                .collect();
        }
        if contexts.len() == 1 {
            contexts[0].clear(); // no facts — single unconstrained pass
        }
        contexts
    }

    /// Is the edge feasible under the context's register values?
    fn feasible(e: &CostEdge<L>, ctx: &[(Reg, i64)]) -> bool {
        match e.pred {
            None => true,
            Some((r, imm, cond)) => ctx
                .iter()
                .find(|(cr, _)| *cr == r)
                .is_none_or(|(_, v)| cond.holds(*v, i64::from(imm))),
        }
    }

    /// Longest path costs from `start` to every member reachable under
    /// `ctx`, indexed by super-node, or an error if the region (minus
    /// edges back to `start`) is cyclic. Paths sum node costs (both
    /// endpoints included) and internal edge costs.
    fn longest_paths(
        &self,
        ctx: &[(Reg, i64)],
        function: &str,
    ) -> Result<Vec<Option<[u64; L]>>, WcetError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let internal = |e: &CostEdge<L>| {
            let t = self.target(e);
            t != self.start && self.members.contains(&t) && Self::feasible(e, ctx)
        };
        // Iterative DFS for a reverse topological order + cycle check.
        let mut colour = vec![Colour::White; self.g.cost.len()];
        let mut topo: Vec<usize> = Vec::with_capacity(self.members.len());
        let mut stack: Vec<(usize, usize)> = vec![(self.start, 0)];
        colour[self.start] = Colour::Grey;
        while let Some((node, idx)) = stack.last_mut() {
            let node = *node;
            match self.g.edges[node].get(*idx) {
                Some(e) => {
                    *idx += 1;
                    if !internal(e) {
                        continue;
                    }
                    let k = self.target(e);
                    match colour[k] {
                        Colour::White => {
                            colour[k] = Colour::Grey;
                            stack.push((k, 0));
                        }
                        Colour::Grey => return Err(WcetError::IrreducibleCfg(function.into())),
                        Colour::Black => {}
                    }
                }
                None => {
                    colour[node] = Colour::Black;
                    topo.push(node);
                    stack.pop();
                }
            }
        }
        // Relax in topological (parents-first) order.
        let mut d: Vec<Option<[u64; L]>> = vec![None; self.g.cost.len()];
        d[self.start] = Some(self.g.cost[self.start]);
        for &node in topo.iter().rev() {
            let Some(dn) = d[node] else {
                continue;
            };
            for e in self.g.edges[node].iter().filter(|e| internal(e)) {
                let t = self.target(e);
                let via = add(add(dn, e.cost), self.g.cost[t]);
                d[t] = Some(d[t].map_or(via, |old| max(old, via)));
            }
        }
        Ok(d)
    }

    /// Run the DP across every context and maximise the outputs.
    fn analyse(&self, function: &str) -> Result<RegionOut<L>, WcetError> {
        let mut latch = [0u64; L];
        let mut exit: Option<[u64; L]> = None;
        let mut deepest = [0u64; L];
        // External edges keep their full identity — source block,
        // original target *and* predicate (merging two differently
        // predicated exits would let one predicate gate the other's
        // cost); contexts maximise each one's weight.
        let mut external: Vec<(usize, CostEdge<L>)> = Vec::new();
        for ctx in self.contexts() {
            let d = self.longest_paths(&ctx, function)?;
            for (m, dm) in d.iter().enumerate() {
                let Some(dm) = *dm else {
                    continue;
                };
                deepest = max(deepest, dm);
                if let Some(t) = self.g.exit[m] {
                    let total = add(dm, t);
                    exit = Some(exit.map_or(total, |e| max(e, total)));
                }
                for e in self.g.edges[m].iter().filter(|e| Self::feasible(e, &ctx)) {
                    let t = self.target(e);
                    let weight = add(dm, e.cost);
                    if t == self.start {
                        latch = max(latch, weight);
                    } else if !self.members.contains(&t) {
                        match external
                            .iter_mut()
                            .find(|(from, x)| *from == m && x.to == e.to && x.pred == e.pred)
                        {
                            Some((_, x)) => x.cost = max(x.cost, weight),
                            None => external.push((m, CostEdge { cost: weight, ..*e })),
                        }
                    }
                }
            }
        }
        Ok(RegionOut {
            latch,
            external: external.into_iter().map(|(_, e)| e).collect(),
            exit,
            deepest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teamplay_isa::{AluOp, Block};

    /// A lane that prices each `nop` at 1 (every other instruction is
    /// free) and terminators from a small table, so hand-built CFGs
    /// exercise the solver below the cycle model.
    struct Unit {
        branch: u64,
        taken: u64,
        not_taken: u64,
        ret: u64,
    }

    impl CostLane for Unit {
        fn body(&self, insns: &[Insn], _: &dyn Fn(&str) -> u64) -> u64 {
            insns.iter().filter(|i| **i == Insn::Nop).count() as u64
        }
        fn terminator(&self, t: &Terminator, taken: bool) -> u64 {
            match t {
                Terminator::Branch(_) => self.branch,
                Terminator::CondBranch { .. } if taken => self.taken,
                Terminator::CondBranch { .. } => self.not_taken,
                Terminator::Return | Terminator::Halt => self.ret,
            }
        }
    }

    fn block(nops: usize, terminator: Terminator) -> Block {
        Block {
            insns: vec![Insn::Nop; nops],
            terminator,
        }
    }

    fn br(to: u32) -> Terminator {
        Terminator::Branch(BlockId(to))
    }

    fn cond(taken: u32, fallthrough: u32) -> Terminator {
        Terminator::CondBranch {
            cond: Cond::Lt,
            taken: BlockId(taken),
            fallthrough: BlockId(fallthrough),
        }
    }

    fn solve(blocks: Vec<Block>, bounds: &[(u32, u32)], lane: &Unit) -> Result<u64, WcetError> {
        let f = Function {
            name: "f".into(),
            blocks,
            loop_bounds: bounds.iter().map(|&(h, b)| (BlockId(h), b)).collect(),
            frame_size: 0,
        };
        let [bound] = FlowStructure::of(&f).solve(Preset::Ipet, &[lane], &|_, _| 0)?;
        Ok(bound)
    }

    /// Branches and conditional branches cost 3, a fall-through 1, and
    /// a return 4.
    const PG: Unit = Unit {
        branch: 3,
        taken: 3,
        not_taken: 1,
        ret: 4,
    };

    #[test]
    fn straight_line_sums() {
        // 0 → 1 → 2(ret)
        let blocks = vec![
            block(5, br(1)),
            block(7, br(2)),
            block(2, Terminator::Return),
        ];
        assert_eq!(solve(blocks, &[], &PG), Ok(5 + 3 + 7 + 3 + 2 + 4));
    }

    #[test]
    fn diamond_takes_the_heavier_arm_with_its_edge_cost() {
        // 0 → {1 (cost 10, taken edge 3), 2 (cost 20, fall-through 1)} → 3(ret)
        let blocks = vec![
            block(1, cond(1, 2)),
            block(10, br(3)),
            block(20, br(3)),
            block(0, Terminator::Return),
        ];
        // Heavy arm via the cheap fall-through: 1 + 1 + 20 + 3 + 0 + 4.
        assert_eq!(solve(blocks, &[], &PG), Ok(29));
    }

    /// 0 →(3) 1(h) →(3) 2(body) →(3) 1; 1 →(1) 3(ret 4)
    fn counted_loop(header: usize, body: usize) -> Vec<Block> {
        vec![
            block(0, br(1)),
            block(header, cond(2, 3)),
            block(body, br(1)),
            block(0, Terminator::Return),
        ]
    }

    #[test]
    fn loop_charges_body_bound_times_and_header_once_more() {
        // Latch circuit: 1 + 3 + 6 + 3 = 13; eight of them, then the
        // final header check leaving via the cheap exit edge.
        assert_eq!(
            solve(counted_loop(1, 6), &[(1, 8)], &PG),
            Ok(3 + 8 * 13 + 1 + 1 + 4)
        );
    }

    #[test]
    fn zero_bound_loop_still_pays_the_final_check() {
        assert_eq!(solve(counted_loop(2, 9), &[(1, 0)], &PG), Ok(3 + 2 + 1 + 4));
    }

    #[test]
    fn missing_bound_is_reported_with_the_header() {
        let blocks = vec![block(0, br(1)), block(1, br(2)), block(1, br(1))];
        assert_eq!(
            solve(blocks, &[], &PG),
            Err(WcetError::UnboundedLoop {
                function: "f".into(),
                header: 1
            })
        );
    }

    #[test]
    fn irreducible_cycle_is_reported() {
        // 0 → 1 and 0 → 2, 1 ↔ 2: a cycle no header dominates.
        let blocks = vec![block(1, cond(1, 2)), block(1, br(2)), block(1, br(1))];
        for preset in [Preset::Ipet, Preset::Structural] {
            let f = Function {
                name: "f".into(),
                blocks: blocks.clone(),
                loop_bounds: Default::default(),
                frame_size: 0,
            };
            assert_eq!(
                FlowStructure::of(&f).solve(preset, &[&PG], &|_, _| 0),
                Err(WcetError::IrreducibleCfg("f".into()))
            );
        }
    }

    #[test]
    fn return_inside_a_loop_is_the_condensed_exit() {
        // Loop 1 ↔ 2 (bound 3), free edges; body 2 may leave to a
        // return that costs 4 in all, the loop exit to one that costs 1.
        let free = Unit {
            branch: 0,
            taken: 0,
            not_taken: 0,
            ret: 1,
        };
        let blocks = vec![
            block(0, br(1)),
            block(1, cond(2, 3)),
            block(5, cond(1, 4)),
            block(0, Terminator::Return),
            block(3, Terminator::Return),
        ];
        // Worst: 3 latch circuits (6 each), then header → body → ret.
        assert_eq!(solve(blocks, &[(1, 3)], &free), Ok(3 * 6 + 1 + 5 + 4));
    }

    /// Two diamonds in sequence, both testing R5 (written only if
    /// `rewrite_r5` puts a write in the light arm of the first):
    ///   b0: if r5 < 3 → heavy 1 (cost 100) else light (0)
    ///   b3: if r5 > 7 → heavy 2 (cost 100) else light (0)
    fn two_diamonds(rewrite_r5: bool) -> Vec<Block> {
        let test = |nops: usize, imm: i32, cond: Cond, taken: u32, fallthrough: u32| {
            let mut b = block(
                nops,
                Terminator::CondBranch {
                    cond,
                    taken: BlockId(taken),
                    fallthrough: BlockId(fallthrough),
                },
            );
            b.insns.push(Insn::Cmp {
                rn: Reg::R5,
                src: Operand::Imm(imm),
            });
            b
        };
        let mut light = block(0, br(3));
        if rewrite_r5 {
            light.insns.push(Insn::Alu {
                op: AluOp::Add,
                rd: Reg::R5,
                rn: Reg::R5,
                src: Operand::Imm(1),
            });
        }
        vec![
            test(1, 3, Cond::Lt, 1, 2),
            block(100, br(3)),
            light,
            test(1, 7, Cond::Gt, 4, 5),
            block(100, br(6)),
            block(0, br(6)),
            block(1, Terminator::Return),
        ]
    }

    const FREE_EDGES: Unit = Unit {
        branch: 0,
        taken: 0,
        not_taken: 0,
        ret: 2,
    };

    #[test]
    fn exclusive_branches_cannot_both_take_their_long_arm() {
        // Structurally both heavy arms stack (205); value-wise r5 can
        // satisfy only one of r5<3 / r5>7.
        assert_eq!(solve(two_diamonds(false), &[], &FREE_EDGES), Ok(105)); // 1 + 100 + 1 + light(0) + 1 + 2
    }

    #[test]
    fn written_register_disables_the_exclusivity_fact() {
        assert_eq!(
            solve(two_diamonds(true), &[], &FREE_EDGES),
            Ok(1 + 100 + 1 + 100 + 1 + 2)
        );
    }
}
