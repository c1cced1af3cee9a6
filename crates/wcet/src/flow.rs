//! The shared IPET flow solver.
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
//! The solver is deliberately cost-agnostic: `FlowProblem::node_cost`
//! and per-edge costs are plain `u64`s, so the same engine serves the
//! cycle model (WCET) and `teamplay-energy`'s millipicojoule model
//! (WCEC). Callers build a problem with [`FlowProblem::from_function`],
//! handing it a per-block body cost and a terminator-cost closure; the
//! closure's `taken` flag is what makes IPET tighter than the structural
//! bound on conditional branches (a fall-through exit no longer pays the
//! taken-branch worst case).
//!
//! ## The loop-nest dynamic program
//!
//! Natural loops are condensed innermost-first, exactly as in
//! [`crate::structural_bound`], but the condensation is count-exact
//! instead of path-repeating:
//!
//! * one loop entry admits at most `bound` back-edge traversals, so the
//!   condensed node costs `bound × best-latch-circuit` — the header is
//!   charged `bound + 1` times in total (once on the final exit check),
//!   while the structural engine charges the whole worst iteration path
//!   `bound + 1` times;
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
//! path.
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
//! `x < 3 ∧ x ≥ 7`-style path combinations the structural engine (and
//! plain conservation constraints) must admit. Registers written
//! anywhere in the region — including by calls, which are treated as
//! clobbering every register — are never correlated.
//!
//! Irreducible control flow (a cycle that is not a natural loop) makes
//! the region DP cyclic; the solver reports
//! [`FlowError::Irreducible`] and the caller falls back to
//! [`crate::structural_bound`].

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use teamplay_isa::{Cond, Function, Insn, Operand, Reg, Terminator};
use teamplay_minic::cfg::{natural_loops, reverse_postorder, CfgView};

/// Hard cap on the number of value contexts enumerated per region; the
/// cross product of correlated registers is trimmed (dropping facts,
/// never soundness) to stay below it.
const MAX_CONTEXTS: usize = 64;

/// Errors the flow solver can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// A loop header carries no bound fact.
    Unbounded {
        /// The loop-header block index.
        header: usize,
    },
    /// The CFG is irreducible: a cycle survives natural-loop
    /// condensation, so the loop-nest DP cannot order it.
    Irreducible,
}

/// An edge of the flow graph: target block, traversal cost, and an
/// optional predicate (`reg cond imm` must hold for the edge to be
/// taken) feeding the infeasible-path analysis.
#[derive(Debug, Clone, Copy)]
struct FlowEdge {
    to: usize,
    cost: u64,
    pred: Option<(Reg, i32, Cond)>,
}

/// A max-cost flow problem over one function's CFG.
///
/// Built by [`FlowProblem::from_function`] and solved by
/// [`FlowProblem::solve`]. Costs are dimension-free `u64`s — cycles for
/// the WCET instantiation, millipicojoules for the WCEC one.
#[derive(Debug)]
pub struct FlowProblem {
    /// Per-block cost of the straight-line body (terminator excluded).
    node_cost: Vec<u64>,
    /// Outgoing edges per block, terminator costs attached.
    edges: Vec<Vec<FlowEdge>>,
    /// Cost of *ending* the function at a block — `Some` only for
    /// `ret`/`halt` blocks; paths may only terminate there.
    exit_cost: Vec<Option<u64>>,
    /// Max body iterations per loop entry, keyed by header block.
    loop_bounds: BTreeMap<usize, u64>,
    /// Bitmask of registers each block may write (calls clobber all).
    writes: Vec<u16>,
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

/// Evaluate `value cond imm` over i64 (so candidate values adjacent to
/// `i32::MIN`/`MAX` immediates never wrap).
fn cond_holds_i64(cond: Cond, value: i64, imm: i64) -> bool {
    match cond {
        Cond::Eq => value == imm,
        Cond::Ne => value != imm,
        Cond::Lt => value < imm,
        Cond::Le => value <= imm,
        Cond::Gt => value > imm,
        Cond::Ge => value >= imm,
    }
}

impl FlowProblem {
    /// Build the flow problem for `f`.
    ///
    /// `node_cost[b]` is the cost of block `b`'s instruction body
    /// (terminator excluded; callee costs already folded in by the
    /// caller). `term_cost(t, taken)` prices one traversal of the
    /// terminator `t` along its taken (`true`) or fall-through
    /// (`false`) edge — for `Return`/`Halt` the flag is irrelevant.
    pub fn from_function(
        f: &Function,
        node_cost: &[u64],
        term_cost: &dyn Fn(&Terminator, bool) -> u64,
    ) -> FlowProblem {
        let n = f.blocks.len();
        let mut edges: Vec<Vec<FlowEdge>> = vec![Vec::new(); n];
        let mut exit_cost: Vec<Option<u64>> = vec![None; n];
        let mut writes = vec![0u16; n];
        for (i, b) in f.blocks.iter().enumerate() {
            for insn in &b.insns {
                match write_mask(insn) {
                    Some(m) => writes[i] |= m,
                    None => writes[i] = u16::MAX,
                }
            }
            // A trailing `cmp reg, #imm` makes the conditional branch's
            // predicate explicit; whether it is *usable* is decided per
            // region by the write masks.
            let guard = match b.insns.last() {
                Some(Insn::Cmp {
                    rn,
                    src: Operand::Imm(imm),
                }) => Some((*rn, *imm)),
                _ => None,
            };
            match &b.terminator {
                Terminator::Branch(t) => {
                    edges[i].push(FlowEdge {
                        to: t.index(),
                        cost: term_cost(&b.terminator, true),
                        pred: None,
                    });
                }
                Terminator::CondBranch {
                    cond,
                    taken,
                    fallthrough,
                } => {
                    if taken == fallthrough {
                        let cost =
                            term_cost(&b.terminator, true).max(term_cost(&b.terminator, false));
                        edges[i].push(FlowEdge {
                            to: taken.index(),
                            cost,
                            pred: None,
                        });
                    } else {
                        edges[i].push(FlowEdge {
                            to: taken.index(),
                            cost: term_cost(&b.terminator, true),
                            pred: guard.map(|(r, imm)| (r, imm, *cond)),
                        });
                        edges[i].push(FlowEdge {
                            to: fallthrough.index(),
                            cost: term_cost(&b.terminator, false),
                            pred: guard.map(|(r, imm)| (r, imm, cond.negate())),
                        });
                    }
                }
                Terminator::Return | Terminator::Halt => {
                    exit_cost[i] = Some(term_cost(&b.terminator, true));
                }
            }
        }
        FlowProblem {
            node_cost: node_cost.to_vec(),
            edges,
            exit_cost,
            loop_bounds: f
                .loop_bounds
                .iter()
                .map(|(id, b)| (id.index(), u64::from(*b)))
                .collect(),
            writes,
        }
    }

    /// Solve the problem exactly: the IPET maximum over all count
    /// assignments satisfying conservation, the loop bounds and the
    /// derivable exclusivity facts.
    ///
    /// # Errors
    /// [`FlowError::Unbounded`] when a loop header has no bound;
    /// [`FlowError::Irreducible`] when the CFG defeats the loop-nest DP
    /// (callers fall back to the structural engine).
    pub fn solve(&self) -> Result<u64, FlowError> {
        let n = self.node_cost.len();
        let view = ProblemView(self);
        let reachable: HashSet<usize> = reverse_postorder(&view).into_iter().collect();

        // Condensation state, mirroring `structural_bound`: every block
        // maps to its current super-node (loop headers double as
        // super-node ids), whose cost/edges/exit/writes evolve as loops
        // collapse.
        let mut node_of: Vec<usize> = (0..n).collect();
        let mut cost = self.node_cost.clone();
        let mut edges: Vec<Vec<FlowEdge>> = (0..n)
            .map(|i| {
                if reachable.contains(&i) {
                    self.edges[i].clone()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let mut exit_cost = self.exit_cost.clone();
        let mut writes = self.writes.clone();

        let mut loops = natural_loops(&view);
        loops.sort_by_key(|l| l.body.len());

        for l in &loops {
            let header = node_of[l.header];
            let bound = *self
                .loop_bounds
                .get(&l.header)
                .ok_or(FlowError::Unbounded { header: l.header })?;
            let members: BTreeSet<usize> = l.body.iter().map(|b| node_of[*b]).collect();

            let region = Region {
                members: &members,
                start: header,
                node_of: &node_of,
                cost: &cost,
                edges: &edges,
                exit_cost: &exit_cost,
                writes: &writes,
            };
            let out = region.analyse()?;

            // Condense into the header's id: `bound` worst latch
            // circuits, per-exit-edge weighted continuations, and the
            // worst in-loop termination as the node's own exit cost.
            cost[header] = out.latch.saturating_mul(bound);
            edges[header] = out.external;
            exit_cost[header] = out.exit;
            let mask = members.iter().fold(0u16, |m, s| m | writes[*s]);
            writes[header] = mask;
            for node in node_of.iter_mut() {
                if members.contains(node) {
                    *node = header;
                }
            }
        }

        // Top level: one DAG pass over the condensed graph.
        let members: BTreeSet<usize> = (0..n)
            .filter(|b| reachable.contains(b))
            .map(|b| node_of[b])
            .collect();
        let region = Region {
            members: &members,
            start: node_of[0],
            node_of: &node_of,
            cost: &cost,
            edges: &edges,
            exit_cost: &exit_cost,
            writes: &writes,
        };
        let out = region.analyse()?;
        // A degenerate CFG with no reachable `ret`/`halt` still gets the
        // conservative longest-path answer (as the structural engine
        // would give).
        Ok(out.exit.unwrap_or(out.deepest))
    }
}

/// `CfgView` adapter so the generic loop discovery runs on the problem.
struct ProblemView<'a>(&'a FlowProblem);

impl CfgView for ProblemView<'_> {
    fn num_blocks(&self) -> usize {
        self.0.node_cost.len()
    }
    fn entry(&self) -> usize {
        0
    }
    fn successors(&self, block: usize) -> Vec<usize> {
        self.0.edges[block].iter().map(|e| e.to).collect()
    }
}

/// One acyclic region of the condensed graph: a loop body (start = the
/// header) or the whole top level (start = the entry's super-node).
struct Region<'a> {
    members: &'a BTreeSet<usize>,
    start: usize,
    node_of: &'a [usize],
    cost: &'a [u64],
    edges: &'a [Vec<FlowEdge>],
    exit_cost: &'a [Option<u64>],
    writes: &'a [u16],
}

/// The three quantities a region DP produces, maximised over contexts.
struct RegionOut {
    /// Worst latch circuit: `maxpath(start → t) + cost(t → start)`.
    /// Zero when the region has no back edge (the top level).
    latch: u64,
    /// Region-leaving edges, reweighted with their internal prefix
    /// path: `maxpath(start → u) + cost(u → v)`.
    external: Vec<FlowEdge>,
    /// Worst terminating path (`maxpath(start → m) + exit_cost(m)`), or
    /// `None` when no member can end the function.
    exit: Option<u64>,
    /// Worst path to anywhere in the region, terminating or not.
    deepest: u64,
}

impl Region<'_> {
    /// An edge's resolved target super-node.
    fn target(&self, e: &FlowEdge) -> usize {
        self.node_of[e.to]
    }

    /// The value contexts to enumerate: registers tested by at least
    /// two predicated edges of the region and written by no member,
    /// each with the candidate values that cover every interval cell
    /// of its immediates. Returns the empty vector when no fact is
    /// usable (one unconstrained pass is then performed).
    fn contexts(&self) -> Vec<Vec<(Reg, i64)>> {
        let region_mask = self.members.iter().fold(0u16, |m, s| m | self.writes[*s]);
        let mut imms: BTreeMap<Reg, BTreeSet<i64>> = BTreeMap::new();
        let mut branches: BTreeMap<Reg, usize> = BTreeMap::new();
        for &m in self.members {
            let mut seen_here: BTreeSet<Reg> = BTreeSet::new();
            for e in &self.edges[m] {
                if let Some((r, imm, _)) = e.pred {
                    if region_mask & (1 << r.index()) == 0 {
                        imms.entry(r).or_default().insert(i64::from(imm));
                        if seen_here.insert(r) {
                            *branches.entry(r).or_default() += 1;
                        }
                    }
                }
            }
        }
        // A register tested by a single branch cannot produce an
        // exclusivity fact: the max over its half-spaces equals the
        // unconstrained max.
        imms.retain(|r, _| branches.get(r).copied().unwrap_or(0) >= 2);

        let mut contexts: Vec<Vec<(Reg, i64)>> = vec![Vec::new()];
        for (r, points) in imms {
            let mut candidates: BTreeSet<i64> = BTreeSet::new();
            for p in points {
                candidates.extend([p - 1, p, p + 1]);
            }
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
    fn feasible(e: &FlowEdge, ctx: &[(Reg, i64)]) -> bool {
        match e.pred {
            None => true,
            Some((r, imm, cond)) => ctx
                .iter()
                .find(|(cr, _)| *cr == r)
                .is_none_or(|(_, v)| cond_holds_i64(cond, *v, i64::from(imm))),
        }
    }

    /// Longest path costs from `start` to every member reachable under
    /// `ctx`, or `Err` if the region (minus edges back to `start`) is
    /// cyclic. Paths sum node costs (both endpoints included) and
    /// internal edge costs.
    fn longest_paths(&self, ctx: &[(Reg, i64)]) -> Result<HashMap<usize, u64>, FlowError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let internal = |e: &FlowEdge| {
            let t = self.target(e);
            t != self.start && self.members.contains(&t) && Self::feasible(e, ctx)
        };
        // Iterative DFS for a reverse topological order + cycle check.
        let mut colour: HashMap<usize, Colour> =
            self.members.iter().map(|&m| (m, Colour::White)).collect();
        let mut topo: Vec<usize> = Vec::with_capacity(self.members.len());
        let mut stack: Vec<(usize, Vec<usize>, usize)> = Vec::new();
        let kids_of = |node: usize| -> Vec<usize> {
            self.edges[node]
                .iter()
                .filter(|e| internal(e))
                .map(|e| self.target(e))
                .collect()
        };
        colour.insert(self.start, Colour::Grey);
        stack.push((self.start, kids_of(self.start), 0));
        while let Some((node, kids, idx)) = stack.last_mut() {
            if *idx < kids.len() {
                let k = kids[*idx];
                *idx += 1;
                match colour[&k] {
                    Colour::White => {
                        colour.insert(k, Colour::Grey);
                        let kk = kids_of(k);
                        stack.push((k, kk, 0));
                    }
                    Colour::Grey => return Err(FlowError::Irreducible),
                    Colour::Black => {}
                }
            } else {
                colour.insert(*node, Colour::Black);
                topo.push(*node);
                stack.pop();
            }
        }
        // Relax in topological (parents-first) order.
        let mut d: HashMap<usize, u64> = HashMap::with_capacity(topo.len());
        d.insert(self.start, self.cost[self.start]);
        for &node in topo.iter().rev() {
            let Some(dn) = d.get(&node).copied() else {
                continue;
            };
            for e in &self.edges[node] {
                if !internal(e) {
                    continue;
                }
                let t = self.target(e);
                let via = dn.saturating_add(e.cost).saturating_add(self.cost[t]);
                let entry = d.entry(t).or_insert(0);
                *entry = (*entry).max(via);
            }
        }
        Ok(d)
    }

    /// Run the DP across every context and maximise the outputs.
    fn analyse(&self) -> Result<RegionOut, FlowError> {
        let mut latch = 0u64;
        let mut exit: Option<u64> = None;
        let mut deepest = 0u64;
        // External edges keep their full identity — source block,
        // original target *and* predicate (merging two differently
        // predicated exits would let one predicate gate the other's
        // cost); contexts maximise each one's weight.
        type EdgeKey = (usize, usize, Option<(Reg, i32, Cond)>);
        let mut external: HashMap<EdgeKey, u64> = HashMap::new();
        for ctx in self.contexts() {
            let d = self.longest_paths(&ctx)?;
            for (&m, &dm) in &d {
                deepest = deepest.max(dm);
                if let Some(t) = self.exit_cost[m] {
                    let total = dm.saturating_add(t);
                    exit = Some(exit.map_or(total, |e| e.max(total)));
                }
                for e in &self.edges[m] {
                    if !Self::feasible(e, &ctx) {
                        continue;
                    }
                    let t = self.target(e);
                    if t == self.start {
                        latch = latch.max(dm.saturating_add(e.cost));
                    } else if !self.members.contains(&t) {
                        let weight = dm.saturating_add(e.cost);
                        let slot = external.entry((m, e.to, e.pred)).or_insert(0);
                        *slot = (*slot).max(weight);
                    }
                }
            }
        }
        let mut external: Vec<FlowEdge> = external
            .into_iter()
            .map(|((_, to, pred), cost)| FlowEdge { to, cost, pred })
            .collect();
        external.sort_by_key(|e| (e.to, e.cost));
        Ok(RegionOut {
            latch,
            external,
            exit,
            deepest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built problems exercise the solver below the ISA layer.
    fn problem(
        costs: &[u64],
        edges: &[(usize, usize, u64)],
        exits: &[(usize, u64)],
        bounds: &[(usize, u64)],
    ) -> FlowProblem {
        let n = costs.len();
        let mut e: Vec<Vec<FlowEdge>> = vec![Vec::new(); n];
        for &(u, v, c) in edges {
            e[u].push(FlowEdge {
                to: v,
                cost: c,
                pred: None,
            });
        }
        let mut exit_cost: Vec<Option<u64>> = vec![None; n];
        for &(b, c) in exits {
            exit_cost[b] = Some(c);
        }
        FlowProblem {
            node_cost: costs.to_vec(),
            edges: e,
            exit_cost,
            loop_bounds: bounds.iter().copied().collect(),
            writes: vec![0; n],
        }
    }

    #[test]
    fn straight_line_sums() {
        // 0 → 1 → 2(ret)
        let p = problem(&[5, 7, 2], &[(0, 1, 3), (1, 2, 3)], &[(2, 4)], &[]);
        assert_eq!(p.solve(), Ok(5 + 3 + 7 + 3 + 2 + 4));
    }

    #[test]
    fn diamond_takes_the_heavier_arm_with_its_edge_cost() {
        // 0 → {1 (cost 10, edge 3), 2 (cost 20, edge 1)} → 3(ret)
        let p = problem(
            &[1, 10, 20, 0],
            &[(0, 1, 3), (0, 2, 1), (1, 3, 3), (2, 3, 3)],
            &[(3, 4)],
            &[],
        );
        // Heavy arm via the cheap fall-through: 1 + 1 + 20 + 3 + 0 + 4.
        assert_eq!(p.solve(), Ok(29));
    }

    #[test]
    fn loop_charges_body_bound_times_and_header_once_more() {
        // 0 →(3) 1(h, cost 1) →(3) 2(body, cost 6) →(3) 1; 1 →(1) 3(ret 4)
        let p = problem(
            &[0, 1, 6, 0],
            &[(0, 1, 3), (1, 2, 3), (2, 1, 3), (1, 3, 1)],
            &[(3, 4)],
            &[(1, 8)],
        );
        // Latch circuit: 1 + 3 + 6 + 3 = 13; eight of them, then the
        // final header check leaving via the cheap exit edge.
        assert_eq!(p.solve(), Ok(3 + 8 * 13 + 1 + 1 + 4));
    }

    #[test]
    fn zero_bound_loop_still_pays_the_final_check() {
        let p = problem(
            &[0, 2, 9, 0],
            &[(0, 1, 3), (1, 2, 3), (2, 1, 3), (1, 3, 1)],
            &[(3, 4)],
            &[(1, 0)],
        );
        assert_eq!(p.solve(), Ok(3 + 2 + 1 + 4));
    }

    #[test]
    fn missing_bound_is_reported_with_the_header() {
        let p = problem(&[0, 1, 1], &[(0, 1, 1), (1, 2, 1), (2, 1, 1)], &[], &[]);
        assert_eq!(p.solve(), Err(FlowError::Unbounded { header: 1 }));
    }

    #[test]
    fn irreducible_cycle_is_reported() {
        // 0 → 1 and 0 → 2, 1 ↔ 2: a cycle no header dominates.
        let p = problem(
            &[1, 1, 1],
            &[(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 1, 1)],
            &[],
            &[],
        );
        assert_eq!(p.solve(), Err(FlowError::Irreducible));
    }

    #[test]
    fn return_inside_a_loop_is_the_condensed_exit() {
        // Loop 1↔2 (bound 3); body 2 may return directly (cost 4).
        let p = problem(
            &[0, 1, 5, 0],
            &[(0, 1, 0), (1, 2, 0), (2, 1, 0), (1, 3, 0)],
            &[(2, 4), (3, 1)],
            &[(1, 3)],
        );
        // Worst: 3 latch circuits (6 each), then header → body → ret.
        assert_eq!(p.solve(), Ok(3 * 6 + 1 + 5 + 4));
    }

    #[test]
    fn exclusive_branches_cannot_both_take_their_long_arm() {
        // Two diamonds in sequence, both testing R5 (never written):
        //   b0: if r5 < 3 → heavy 1 (cost 100) else light (0)
        //   b3: if r5 > 7 → heavy 2 (cost 100) else light (0)
        let pred = |imm, cond| Some((Reg::R5, imm, cond));
        let mut e: Vec<Vec<FlowEdge>> = vec![Vec::new(); 7];
        e[0].push(FlowEdge {
            to: 1,
            cost: 0,
            pred: pred(3, Cond::Lt),
        });
        e[0].push(FlowEdge {
            to: 2,
            cost: 0,
            pred: pred(3, Cond::Ge),
        });
        e[1].push(FlowEdge {
            to: 3,
            cost: 0,
            pred: None,
        });
        e[2].push(FlowEdge {
            to: 3,
            cost: 0,
            pred: None,
        });
        e[3].push(FlowEdge {
            to: 4,
            cost: 0,
            pred: pred(7, Cond::Gt),
        });
        e[3].push(FlowEdge {
            to: 5,
            cost: 0,
            pred: pred(7, Cond::Le),
        });
        e[4].push(FlowEdge {
            to: 6,
            cost: 0,
            pred: None,
        });
        e[5].push(FlowEdge {
            to: 6,
            cost: 0,
            pred: None,
        });
        let p = FlowProblem {
            node_cost: vec![1, 100, 0, 1, 100, 0, 1],
            edges: e,
            exit_cost: {
                let mut x = vec![None; 7];
                x[6] = Some(2);
                x
            },
            loop_bounds: BTreeMap::new(),
            writes: vec![0; 7],
        };
        // Structurally both heavy arms stack (205); value-wise r5 can
        // satisfy only one of r5<3 / r5>7.
        assert_eq!(p.solve(), Ok(105)); // 1 + 100 + 1 + light(0) + 1 + 2
    }

    #[test]
    fn written_register_disables_the_exclusivity_fact() {
        let pred = |imm, cond| Some((Reg::R5, imm, cond));
        let mut e: Vec<Vec<FlowEdge>> = vec![Vec::new(); 7];
        e[0].push(FlowEdge {
            to: 1,
            cost: 0,
            pred: pred(3, Cond::Lt),
        });
        e[0].push(FlowEdge {
            to: 2,
            cost: 0,
            pred: pred(3, Cond::Ge),
        });
        e[1].push(FlowEdge {
            to: 3,
            cost: 0,
            pred: None,
        });
        e[2].push(FlowEdge {
            to: 3,
            cost: 0,
            pred: None,
        });
        e[3].push(FlowEdge {
            to: 4,
            cost: 0,
            pred: pred(7, Cond::Gt),
        });
        e[3].push(FlowEdge {
            to: 5,
            cost: 0,
            pred: pred(7, Cond::Le),
        });
        e[4].push(FlowEdge {
            to: 6,
            cost: 0,
            pred: None,
        });
        e[5].push(FlowEdge {
            to: 6,
            cost: 0,
            pred: None,
        });
        let mut writes = vec![0u16; 7];
        writes[2] = 1 << Reg::R5.index(); // the light arm rewrites r5
        let p = FlowProblem {
            node_cost: vec![1, 100, 0, 1, 100, 0, 1],
            edges: e,
            exit_cost: {
                let mut x = vec![None; 7];
                x[6] = Some(2);
                x
            },
            loop_bounds: BTreeMap::new(),
            writes,
        };
        assert_eq!(p.solve(), Ok(1 + 100 + 1 + 100 + 1 + 2));
    }
}
