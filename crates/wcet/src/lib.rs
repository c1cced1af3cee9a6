//! # teamplay-wcet — static worst-case execution time analysis
//!
//! The reproduction's analogue of the aiT tool (paper ref \[6\]) that the
//! multi-criteria compiler invokes as a plug-in (Fig. 1). Because PG32 is
//! a *predictable* architecture — every instruction has a statically known
//! cycle cost — WCET analysis reduces to a flow problem, and since PR 5 it
//! is solved with a genuine **IPET** (implicit path enumeration)
//! formulation, the technique the paper inherits from the WCC/aiT
//! toolchain:
//!
//! 1. cost every basic block from the shared [`teamplay_isa::CycleModel`]
//!    (so the analyser and the simulator can never disagree on unit
//!    costs; only path feasibility is approximated) — conditional-branch
//!    costs are attached *per edge*, so a fall-through no longer pays the
//!    taken-branch worst case;
//! 2. formulate per-edge execution-count flow constraints over the CFG:
//!    Kirchhoff conservation at every block, loop-bound caps on the
//!    back-edge counts (from CSL annotations, counted-loop inference, and
//!    the trip counts the compiler's `unroll` pass proves), and
//!    infeasible-path facts for mutually exclusive branches on the same
//!    unwritten register;
//! 3. solve the resulting max-cost flow problem **exactly** with the
//!    in-tree loop-nest dynamic program in [`flow`] (reducible CFGs; no
//!    external LP crate, consistent with the vendored-offline rule),
//!    falling back to [`structural_bound`] on irreducible graphs; and
//! 4. resolve calls bottom-up over the (recursion-free) call graph,
//!    memoizing per-function results by content hash in an
//!    [`AnalysisCache`] so the thousands of variants a Pareto search
//!    compiles never re-analyse an unchanged function.
//!
//! The same flow solver serves the worst-case *energy* analysis in
//! `teamplay-energy` through [`flow_bound_with`]: per-block picojoule
//! costs ride the identical constraint system, exactly as WCC shares its
//! flow facts between its aiT and EnergyAnalyser plug-ins. On every
//! program the IPET bound is at most the structural bound (kept available
//! as [`analyze_program_structural`] for tightness measurement —
//! `BENCH_wcet.json` records the per-kernel ratios) and never below the
//! simulator's observed cycles; both properties are property-tested.
//!
//! ```
//! use teamplay_isa::{Block, CycleModel, Function, Program, Terminator};
//! use teamplay_wcet::analyze_program;
//!
//! let mut program = Program::new();
//! program.add_function(Function::stub("main"));
//! let report = analyze_program(&program, &CycleModel::pg32())?;
//! assert!(report.wcet_cycles("main").is_some());
//! # Ok::<(), teamplay_wcet::WcetError>(())
//! ```

pub mod flow;

use flow::{FlowError, FlowProblem};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use teamplay_isa::{CycleModel, Function, Insn, Program, Terminator};
use teamplay_minic::cfg::{natural_loops, reverse_postorder, CfgView};

/// Errors the analysis can report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WcetError {
    /// A loop has no bound annotation and none could be inferred.
    UnboundedLoop {
        /// Function containing the loop.
        function: String,
        /// Header block index.
        header: u32,
    },
    /// The program's call graph contains recursion.
    Recursion(String),
    /// The CFG is irreducible (a cycle remains after loop condensation).
    IrreducibleCfg(String),
    /// A called function does not exist.
    UnknownCallee {
        /// The caller.
        function: String,
        /// The missing callee.
        callee: String,
    },
    /// Structural validation of the program failed.
    InvalidProgram(String),
}

impl fmt::Display for WcetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WcetError::UnboundedLoop { function, header } => {
                write!(
                    f,
                    "function `{function}`: loop at block {header} has no bound; \
                     add a `/*@ loop bound(n) @*/` annotation"
                )
            }
            WcetError::Recursion(func) => {
                write!(
                    f,
                    "recursion involving `{func}` — WCET analysis requires a call tree"
                )
            }
            WcetError::IrreducibleCfg(func) => {
                write!(f, "function `{func}` has irreducible control flow")
            }
            WcetError::UnknownCallee { function, callee } => {
                write!(f, "function `{function}` calls unknown `{callee}`")
            }
            WcetError::InvalidProgram(msg) => write!(f, "invalid program: {msg}"),
        }
    }
}

impl std::error::Error for WcetError {}

/// Per-program WCET results.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WcetReport {
    per_function: BTreeMap<String, u64>,
}

impl WcetReport {
    /// The WCET bound for a function, in cycles.
    pub fn wcet_cycles(&self, function: &str) -> Option<u64> {
        self.per_function.get(function).copied()
    }

    /// Iterate all `(function, wcet)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.per_function.iter().map(|(n, w)| (n.as_str(), *w))
    }

    /// WCET in microseconds at the given clock frequency.
    pub fn wcet_us(&self, function: &str, clock_mhz: f64) -> Option<f64> {
        self.wcet_cycles(function).map(|c| c as f64 / clock_mhz)
    }
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

/// Per-block instruction-body costs (terminators excluded, callee WCETs
/// folded in) for the flow formulation; unreachable blocks cost zero.
fn body_costs(
    f: &Function,
    model: &CycleModel,
    callee_wcets: &BTreeMap<String, u64>,
) -> Result<Vec<u64>, WcetError> {
    let view = FnView(f);
    let reachable: HashSet<usize> = reverse_postorder(&view).into_iter().collect();
    let mut cost = vec![0u64; f.blocks.len()];
    for (i, b) in f.blocks.iter().enumerate() {
        if !reachable.contains(&i) {
            continue;
        }
        let mut c = 0u64;
        for insn in &b.insns {
            c += model.cycles(insn, false);
            if let Insn::Call { func } = insn {
                let callee = callee_wcets
                    .get(func)
                    .ok_or_else(|| WcetError::UnknownCallee {
                        function: f.name.clone(),
                        callee: func.clone(),
                    })?;
                c += *callee;
            }
        }
        cost[i] = c;
    }
    Ok(cost)
}

/// The shared time/energy flow bound: build the IPET problem for `f`
/// from per-block body costs (terminators excluded) and a per-edge
/// terminator-cost closure, solve it exactly, and fall back to the
/// [`structural_bound`] on irreducible control flow.
///
/// This is the single engine behind both the cycle-based WCET analysis
/// here and the worst-case *energy* analysis in `teamplay-energy`
/// (which supplies millipicojoule costs) — one flow solver, two
/// non-functional properties, exactly as WCC shares its flow facts
/// between its aiT and EnergyAnalyser plug-ins.
///
/// # Errors
/// See [`WcetError`].
pub fn flow_bound_with(
    f: &Function,
    node_cost: &[u64],
    term_cost: &dyn Fn(&Terminator, bool) -> u64,
) -> Result<u64, WcetError> {
    let problem = FlowProblem::from_function(f, node_cost, term_cost);
    match problem.solve() {
        Ok(bound) => Ok(bound),
        Err(FlowError::Unbounded { header }) => Err(WcetError::UnboundedLoop {
            function: f.name.clone(),
            header: header as u32,
        }),
        Err(FlowError::Irreducible) => structural_bound_with(f, node_cost, term_cost),
    }
}

/// [`structural_bound`] over per-block body costs (terminators excluded)
/// and a per-edge terminator-cost closure: each block pays the larger of
/// its terminator's taken and not-taken costs, as the structural engine
/// expects. This is the pre-IPET baseline of both the time and the
/// energy analysis, and [`flow_bound_with`]'s irreducible fallback.
///
/// # Errors
/// See [`WcetError`].
pub fn structural_bound_with(
    f: &Function,
    node_cost: &[u64],
    term_cost: &dyn Fn(&Terminator, bool) -> u64,
) -> Result<u64, WcetError> {
    let cost: Vec<u64> = node_cost
        .iter()
        .zip(&f.blocks)
        .map(|(c, b)| {
            c.saturating_add(term_cost(&b.terminator, true).max(term_cost(&b.terminator, false)))
        })
        .collect();
    structural_bound(f, &cost)
}

/// Analyse one function given already-known callee WCETs (IPET engine).
///
/// Exposed for the compiler's per-variant evaluation loop, which analyses
/// a single function against a cache of callee results.
///
/// # Errors
/// See [`WcetError`].
pub fn analyze_function(
    f: &Function,
    model: &CycleModel,
    callee_wcets: &BTreeMap<String, u64>,
) -> Result<u64, WcetError> {
    let cost = body_costs(f, model, callee_wcets)?;
    flow_bound_with(f, &cost, &|t, taken| model.terminator_cycles(t, taken))
}

/// [`analyze_function`] under the pre-IPET structural engine: loops are
/// condensed at `(bound + 1) × worst-iteration-path` and every block
/// pays its worst-case terminator. Kept as the tightness baseline the
/// benches and the oracle tests compare the IPET bound against (IPET ≤
/// structural on every function).
///
/// # Errors
/// See [`WcetError`].
pub fn analyze_function_structural(
    f: &Function,
    model: &CycleModel,
    callee_wcets: &BTreeMap<String, u64>,
) -> Result<u64, WcetError> {
    let cost = body_costs(f, model, callee_wcets)?;
    structural_bound_with(f, &cost, &|t, taken| model.terminator_cycles(t, taken))
}

/// Compute the structural worst-case bound of `f` for arbitrary per-block
/// costs: loops are condensed innermost-first at `(bound + 1) ×
/// iteration-cost` and the condensed DAG's longest path is returned.
///
/// Costs must *include* each block's (worst-case) terminator cost; the
/// engine is path-insensitive and edge-cost-blind, which is exactly what
/// makes it the conservative baseline for the IPET solver in [`flow`].
///
/// # Errors
/// See [`WcetError`].
pub fn structural_bound(f: &Function, cost: &[u64]) -> Result<u64, WcetError> {
    let view = FnView(f);
    let reachable: HashSet<usize> = reverse_postorder(&view).into_iter().collect();

    // Union-find style node mapping: block -> current super-node.
    let n = f.blocks.len();
    let mut node_of: Vec<usize> = (0..n).collect();
    // Node costs and successor sets (on super-node ids; reuse block ids of
    // loop headers as super-node ids).
    let mut node_cost: Vec<u64> = cost.to_vec();
    let mut succs: Vec<HashSet<usize>> = (0..n)
        .map(|i| {
            if reachable.contains(&i) {
                view.successors(i).into_iter().collect()
            } else {
                HashSet::new()
            }
        })
        .collect();

    // Innermost-first: sort loops by body size ascending.
    let mut loops = natural_loops(&view);
    loops.sort_by_key(|l| l.body.len());

    for l in &loops {
        let header_node = node_of[l.header];
        let bound = *f
            .loop_bounds
            .get(&teamplay_isa::BlockId(l.header as u32))
            .ok_or(WcetError::UnboundedLoop {
                function: f.name.clone(),
                header: l.header as u32,
            })?;

        // Current super-nodes that make up this loop.
        let members: HashSet<usize> = l.body.iter().map(|b| node_of[*b]).collect();

        // Longest path from the header node within the members, with
        // edges back to the header removed (acyclic once inner loops are
        // condensed).
        let iter_cost = longest_path_within(&members, header_node, &succs, &node_cost)
            .ok_or_else(|| WcetError::IrreducibleCfg(f.name.clone()))?;

        // Condense: the header node becomes the super-node.
        let total = iter_cost.saturating_mul(bound as u64 + 1);
        node_cost[header_node] = total;
        let mut external: HashSet<usize> = HashSet::new();
        for &m in &members {
            for &s in &succs[m] {
                let sn = node_of[s];
                if !members.contains(&sn) {
                    external.insert(sn);
                }
            }
        }
        succs[header_node] = external;
        for node in node_of.iter_mut().take(n) {
            if members.contains(node) {
                *node = header_node;
            }
        }
    }

    // Longest path over the condensed DAG from the entry node.
    let entry_node = node_of[0];
    let all_nodes: HashSet<usize> = (0..n)
        .filter(|b| reachable.contains(b))
        .map(|b| node_of[b])
        .collect();
    longest_path_within(&all_nodes, entry_node, &succs, &node_cost)
        .ok_or_else(|| WcetError::IrreducibleCfg(f.name.clone()))
}

/// Longest node-weighted path from `start` within `members`, following
/// `succs` but never re-entering `start`. Returns `None` if a cycle is
/// found (graph not properly condensed / irreducible CFG).
fn longest_path_within(
    members: &HashSet<usize>,
    start: usize,
    succs: &[HashSet<usize>],
    node_cost: &[u64],
) -> Option<u64> {
    // Iterative DFS computing topological order; cycle detection via
    // colour marking.
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let mut colour: HashMap<usize, Colour> = members.iter().map(|&m| (m, Colour::White)).collect();
    let mut topo: Vec<usize> = Vec::with_capacity(members.len());
    let mut stack: Vec<(usize, Vec<usize>, usize)> = Vec::new();
    let next_of = |node: usize| -> Vec<usize> {
        succs[node]
            .iter()
            .copied()
            .filter(|s| members.contains(s) && *s != start)
            .collect()
    };
    colour.insert(start, Colour::Grey);
    stack.push((start, next_of(start), 0));
    while let Some((node, kids, idx)) = stack.last_mut() {
        if *idx < kids.len() {
            let k = kids[*idx];
            *idx += 1;
            match colour[&k] {
                Colour::White => {
                    colour.insert(k, Colour::Grey);
                    let kk = next_of(k);
                    stack.push((k, kk, 0));
                }
                Colour::Grey => return None, // cycle
                Colour::Black => {}
            }
        } else {
            colour.insert(*node, Colour::Black);
            topo.push(*node);
            stack.pop();
        }
    }
    // topo is reverse topological order (children before parents).
    let mut best: HashMap<usize, u64> = HashMap::new();
    for &node in &topo {
        let kid_best = succs[node]
            .iter()
            .filter(|s| members.contains(s) && **s != start)
            .map(|s| best.get(s).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        best.insert(node, node_cost[node].saturating_add(kid_best));
    }
    Some(best.get(&start).copied().unwrap_or(node_cost[start]))
}

/// A thread-safe memo of per-function analysis results, keyed by the
/// function's *content hash* (its blocks, bounds and frame, plus the
/// callee bounds it was analysed against).
///
/// The compiler's variant search compiles thousands of configurations of
/// one module; most configurations leave most functions byte-identical,
/// so their analyses are pure replays. One `AnalysisCache` per
/// (cost-model, metric) pair — e.g. one for cycles and one for energy
/// inside the driver's `EvalCache` — turns those replays into hash-map
/// hits. Results are exact values of a pure function of the key, so
/// sharing a cache across threads or searches cannot change any result.
#[derive(Debug, Default)]
pub struct AnalysisCache {
    entries: Mutex<HashMap<u64, u64>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl AnalysisCache {
    /// An empty cache. Use one per cost model and metric.
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// The content key of `f` analysed against `callee_bounds`: a hash
    /// of the function body plus the bound of every callee (in callee
    /// order, so a callee's change re-keys its callers too).
    pub fn key(f: &Function, callee_bounds: &BTreeMap<String, u64>) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        f.hash(&mut h);
        for callee in f.callees() {
            callee_bounds.get(&callee).hash(&mut h);
        }
        h.finish()
    }

    /// Look up `key`, or compute and remember it. Errors are not cached
    /// (the program-level drivers abort on the first error anyway).
    pub fn get_or_try_insert(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<u64, WcetError>,
    ) -> Result<u64, WcetError> {
        if let Some(v) = self.entries.lock().expect("analysis cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(*v);
        }
        let v = compute()?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.entries
            .lock()
            .expect("analysis cache lock")
            .insert(key, v);
        Ok(v)
    }

    /// Lookups answered from the memo.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran the analysis.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

/// The callee-first analysis order over the (recursion-free) call graph.
fn call_order(program: &Program) -> Vec<&str> {
    let mut order: Vec<&str> = Vec::new();
    let mut done: HashSet<&str> = HashSet::new();
    let mut visiting: Vec<(&str, usize)> = Vec::new();
    for start in program.functions.keys() {
        if done.contains(start.as_str()) {
            continue;
        }
        visiting.push((start.as_str(), 0));
        let mut callee_cache: HashMap<&str, Vec<String>> = HashMap::new();
        while let Some((name, idx)) = visiting.pop() {
            let callees = callee_cache
                .entry(name)
                .or_insert_with(|| program.functions[name].callees());
            if idx < callees.len() {
                let next = callees[idx].clone();
                visiting.push((name, idx + 1));
                if let Some((key, _)) = program.functions.get_key_value(next.as_str()) {
                    if !done.contains(key.as_str())
                        && !visiting.iter().any(|(n, _)| *n == key.as_str())
                    {
                        visiting.push((key.as_str(), 0));
                    }
                }
            } else if done.insert(name) {
                order.push(name);
            }
        }
    }
    order
}

/// The shared program-level analysis driver: validate, reject
/// recursion, then analyse every function in callee-first order with
/// `analyse` (handing each its already-resolved callee bounds),
/// optionally memoized through a per-function content-hash `cache`.
///
/// Returns the raw per-function bounds; both this crate's WCET drivers
/// and `teamplay-energy`'s WCEC drivers wrap their reports around it,
/// so validation, ordering and cache-keying policy live in exactly one
/// place.
///
/// # Errors
/// See [`WcetError`].
pub fn resolve_bottom_up(
    program: &Program,
    cache: Option<&AnalysisCache>,
    analyse: impl Fn(&Function, &BTreeMap<String, u64>) -> Result<u64, WcetError>,
) -> Result<BTreeMap<String, u64>, WcetError> {
    program.validate().map_err(WcetError::InvalidProgram)?;
    if program.has_recursion() {
        let name = program.functions.keys().next().cloned().unwrap_or_default();
        return Err(WcetError::Recursion(name));
    }
    let mut bounds: BTreeMap<String, u64> = BTreeMap::new();
    for name in call_order(program) {
        let f = &program.functions[name];
        let w = match cache {
            Some(cache) => {
                cache.get_or_try_insert(AnalysisCache::key(f, &bounds), || analyse(f, &bounds))?
            }
            None => analyse(f, &bounds)?,
        };
        bounds.insert(name.to_string(), w);
    }
    Ok(bounds)
}

/// Analyse a whole program with the IPET engine: every function gets a
/// WCET, resolved bottom-up over the call graph.
///
/// # Errors
/// See [`WcetError`].
pub fn analyze_program(program: &Program, model: &CycleModel) -> Result<WcetReport, WcetError> {
    Ok(WcetReport {
        per_function: resolve_bottom_up(program, None, |f, callees| {
            analyze_function(f, model, callees)
        })?,
    })
}

/// [`analyze_program`] with per-function memoization: unchanged
/// functions (same content hash, same callee bounds) are answered from
/// `cache` instead of re-analysed. Use one cache per [`CycleModel`] —
/// the model is not part of the key.
///
/// # Errors
/// See [`WcetError`].
pub fn analyze_program_cached(
    program: &Program,
    model: &CycleModel,
    cache: &AnalysisCache,
) -> Result<WcetReport, WcetError> {
    Ok(WcetReport {
        per_function: resolve_bottom_up(program, Some(cache), |f, callees| {
            analyze_function(f, model, callees)
        })?,
    })
}

/// Whole-program analysis under the structural baseline engine (see
/// [`analyze_function_structural`]); the tightness denominator in
/// `BENCH_wcet.json`.
///
/// # Errors
/// See [`WcetError`].
pub fn analyze_program_structural(
    program: &Program,
    model: &CycleModel,
) -> Result<WcetReport, WcetError> {
    Ok(WcetReport {
        per_function: resolve_bottom_up(program, None, |f, callees| {
            analyze_function_structural(f, model, callees)
        })?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap as Map;
    use teamplay_isa::{AluOp, Block, BlockId, Cond, Operand, Reg, Terminator};

    fn alu() -> Insn {
        Insn::Alu {
            op: AluOp::Add,
            rd: Reg::R0,
            rn: Reg::R0,
            src: Operand::Imm(1),
        }
    }

    fn straight_function(name: &str, n_insns: usize) -> Function {
        Function {
            name: name.into(),
            blocks: vec![Block {
                insns: (0..n_insns).map(|_| alu()).collect(),
                terminator: Terminator::Return,
            }],
            loop_bounds: Map::new(),
            frame_size: 0,
        }
    }

    #[test]
    fn straight_line_wcet_is_exact_sum() {
        let mut p = Program::new();
        p.add_function(straight_function("f", 5));
        let r = analyze_program(&p, &CycleModel::pg32()).expect("analysis");
        // 5 ALU + ret(4)
        assert_eq!(r.wcet_cycles("f"), Some(9));
    }

    #[test]
    fn diamond_takes_the_longer_arm() {
        // bb0: cmp; branch -> bb1 (10 alu) | bb2 (2 alu); both -> bb3 ret
        let f = Function {
            name: "f".into(),
            blocks: vec![
                Block {
                    insns: vec![Insn::Cmp {
                        rn: Reg::R0,
                        src: Operand::Imm(0),
                    }],
                    terminator: Terminator::CondBranch {
                        cond: Cond::Eq,
                        taken: BlockId(1),
                        fallthrough: BlockId(2),
                    },
                },
                Block {
                    insns: (0..10).map(|_| alu()).collect(),
                    terminator: Terminator::Branch(BlockId(3)),
                },
                Block {
                    insns: (0..2).map(|_| alu()).collect(),
                    terminator: Terminator::Branch(BlockId(3)),
                },
                Block {
                    insns: vec![],
                    terminator: Terminator::Return,
                },
            ],
            loop_bounds: Map::new(),
            frame_size: 0,
        };
        let mut p = Program::new();
        p.add_function(f);
        let r = analyze_program(&p, &CycleModel::pg32()).expect("analysis");
        // cmp(1)+cond_taken(3) + 10 alu + b(3) + ret(4) = 21
        assert_eq!(r.wcet_cycles("f"), Some(21));
    }

    #[test]
    fn heavier_fallthrough_arm_is_charged_the_cheap_edge() {
        // Same diamond, long arm on the *fall-through* side: IPET pays
        // cond_not_taken (1) into it, the structural engine still pays
        // the worst-case terminator (3).
        let f = Function {
            name: "f".into(),
            blocks: vec![
                Block {
                    insns: vec![Insn::Cmp {
                        rn: Reg::R0,
                        src: Operand::Imm(0),
                    }],
                    terminator: Terminator::CondBranch {
                        cond: Cond::Eq,
                        taken: BlockId(2),
                        fallthrough: BlockId(1),
                    },
                },
                Block {
                    insns: (0..10).map(|_| alu()).collect(),
                    terminator: Terminator::Branch(BlockId(3)),
                },
                Block {
                    insns: (0..2).map(|_| alu()).collect(),
                    terminator: Terminator::Branch(BlockId(3)),
                },
                Block {
                    insns: vec![],
                    terminator: Terminator::Return,
                },
            ],
            loop_bounds: Map::new(),
            frame_size: 0,
        };
        let mut p = Program::new();
        p.add_function(f);
        let model = CycleModel::pg32();
        let ipet = analyze_program(&p, &model)
            .expect("ipet")
            .wcet_cycles("f")
            .expect("f");
        let structural = analyze_program_structural(&p, &model)
            .expect("structural")
            .wcet_cycles("f")
            .expect("f");
        // cmp(1) + not-taken(1) + 10 alu + b(3) + ret(4) = 19.
        assert_eq!(ipet, 19);
        assert_eq!(structural, 21);
    }

    fn loop_function(bound: Option<u32>) -> Function {
        // bb0 -> bb1(header: cmp, cond) -> bb2(body: 3 alu) -> bb1; exit bb3
        let mut loop_bounds = Map::new();
        if let Some(b) = bound {
            loop_bounds.insert(BlockId(1), b);
        }
        Function {
            name: "f".into(),
            blocks: vec![
                Block {
                    insns: vec![],
                    terminator: Terminator::Branch(BlockId(1)),
                },
                Block {
                    insns: vec![Insn::Cmp {
                        rn: Reg::R1,
                        src: Operand::Imm(8),
                    }],
                    terminator: Terminator::CondBranch {
                        cond: Cond::Lt,
                        taken: BlockId(2),
                        fallthrough: BlockId(3),
                    },
                },
                Block {
                    insns: (0..3).map(|_| alu()).collect(),
                    terminator: Terminator::Branch(BlockId(1)),
                },
                Block {
                    insns: vec![],
                    terminator: Terminator::Return,
                },
            ],
            loop_bounds,
            frame_size: 0,
        }
    }

    #[test]
    fn loop_wcet_scales_with_bound() {
        let mut p8 = Program::new();
        p8.add_function(loop_function(Some(8)));
        let mut p16 = Program::new();
        p16.add_function(loop_function(Some(16)));
        let model = CycleModel::pg32();
        let w8 = analyze_program(&p8, &model)
            .expect("w8")
            .wcet_cycles("f")
            .expect("f");
        let w16 = analyze_program(&p16, &model)
            .expect("w16")
            .wcet_cycles("f")
            .expect("f");
        // IPET charges the body exactly `bound` times and the header
        // once more: entry b(3) + bound × [cmp(1) + taken(3) + 3 alu +
        // b(3)] + final check cmp(1) + not-taken(1) + ret(4).
        assert_eq!(w8, 3 + 8 * 10 + 1 + 1 + 4);
        assert_eq!(w16, 3 + 16 * 10 + 1 + 1 + 4);
    }

    #[test]
    fn ipet_is_tighter_than_structural_on_loops() {
        let mut p = Program::new();
        p.add_function(loop_function(Some(8)));
        let model = CycleModel::pg32();
        let ipet = analyze_program(&p, &model)
            .expect("ipet")
            .wcet_cycles("f")
            .expect("f");
        let structural = analyze_program_structural(&p, &model)
            .expect("structural")
            .wcet_cycles("f")
            .expect("f");
        // Structural: (8+1) × worst iteration (10) + entry 3 + ret 4.
        assert_eq!(structural, 3 + 9 * 10 + 4);
        assert!(ipet < structural, "{ipet} vs {structural}");
    }

    #[test]
    fn unbounded_loop_is_rejected_with_header() {
        let mut p = Program::new();
        p.add_function(loop_function(None));
        match analyze_program(&p, &CycleModel::pg32()) {
            Err(WcetError::UnboundedLoop { function, header }) => {
                assert_eq!(function, "f");
                assert_eq!(header, 1);
            }
            other => panic!("expected UnboundedLoop, got {other:?}"),
        }
    }

    #[test]
    fn calls_are_resolved_bottom_up() {
        let mut p = Program::new();
        p.add_function(straight_function("leaf", 7));
        let mut caller = straight_function("caller", 1);
        caller.blocks[0].insns.push(Insn::Call {
            func: "leaf".into(),
        });
        p.add_function(caller);
        let r = analyze_program(&p, &CycleModel::pg32()).expect("analysis");
        let leaf = r.wcet_cycles("leaf").expect("leaf");
        let caller_w = r.wcet_cycles("caller").expect("caller");
        // caller = 1 alu + call(4) + leaf + ret(4)
        assert_eq!(caller_w, 1 + 4 + leaf + 4);
    }

    #[test]
    fn recursion_is_rejected() {
        let mut p = Program::new();
        let mut f = straight_function("f", 0);
        f.blocks[0].insns.push(Insn::Call { func: "f".into() });
        p.add_function(f);
        assert!(matches!(
            analyze_program(&p, &CycleModel::pg32()),
            Err(WcetError::Recursion(_))
        ));
    }

    #[test]
    fn nested_loops_multiply() {
        // outer bound 4, inner bound 6; inner body 2 alu.
        let mut loop_bounds = Map::new();
        loop_bounds.insert(BlockId(1), 4);
        loop_bounds.insert(BlockId(2), 6);
        let f = Function {
            name: "f".into(),
            blocks: vec![
                Block {
                    insns: vec![],
                    terminator: Terminator::Branch(BlockId(1)),
                },
                // outer header
                Block {
                    insns: vec![Insn::Cmp {
                        rn: Reg::R1,
                        src: Operand::Imm(4),
                    }],
                    terminator: Terminator::CondBranch {
                        cond: Cond::Lt,
                        taken: BlockId(2),
                        fallthrough: BlockId(4),
                    },
                },
                // inner header
                Block {
                    insns: vec![Insn::Cmp {
                        rn: Reg::R2,
                        src: Operand::Imm(6),
                    }],
                    terminator: Terminator::CondBranch {
                        cond: Cond::Lt,
                        taken: BlockId(3),
                        fallthrough: BlockId(1),
                    },
                },
                // inner body
                Block {
                    insns: vec![alu(), alu()],
                    terminator: Terminator::Branch(BlockId(2)),
                },
                Block {
                    insns: vec![],
                    terminator: Terminator::Return,
                },
            ],
            loop_bounds,
            frame_size: 0,
        };
        let mut p = Program::new();
        p.add_function(f);
        let w = analyze_program(&p, &CycleModel::pg32())
            .expect("analysis")
            .wcet_cycles("f")
            .expect("f");
        // Inner latch circuit: header 1+3 + body 2+3 = 9; six of them
        // plus the inner final check (1 + not-taken 1) = 56 per outer
        // iteration. Outer circuit: 1 + 3 + 56 = 60; four of them plus
        // the outer final check (1 + 1), entry 3, ret 4.
        assert_eq!(w, 3 + 4 * 60 + 1 + 1 + 4);
        // And that is strictly below the structural 342.
        let s = analyze_program_structural(&p, &CycleModel::pg32())
            .expect("structural")
            .wcet_cycles("f")
            .expect("f");
        assert_eq!(s, 342);
        assert!(w < s);
    }

    #[test]
    fn unreachable_blocks_do_not_contribute() {
        let f = Function {
            name: "f".into(),
            blocks: vec![
                Block {
                    insns: vec![alu()],
                    terminator: Terminator::Return,
                },
                Block {
                    insns: (0..100).map(|_| alu()).collect(),
                    terminator: Terminator::Return,
                },
            ],
            loop_bounds: Map::new(),
            frame_size: 0,
        };
        let mut p = Program::new();
        p.add_function(f);
        let r = analyze_program(&p, &CycleModel::pg32()).expect("analysis");
        assert_eq!(r.wcet_cycles("f"), Some(5));
    }

    #[test]
    fn report_time_conversion() {
        let mut p = Program::new();
        p.add_function(straight_function("f", 96));
        let r = analyze_program(&p, &CycleModel::pg32()).expect("analysis");
        // 100 cycles at 50 MHz = 2 µs.
        assert!((r.wcet_us("f", 50.0).expect("f") - 2.0).abs() < 1e-12);
    }

    #[test]
    fn irreducible_cfg_is_rejected_by_both_engines() {
        // 0 branches into a 1 ↔ 2 cycle at both nodes: no header
        // dominates the other, so there is no natural loop to condense
        // and the flow solver's structural fallback rejects it too.
        let f = Function {
            name: "f".into(),
            blocks: vec![
                Block {
                    insns: vec![Insn::Cmp {
                        rn: Reg::R0,
                        src: Operand::Imm(0),
                    }],
                    terminator: Terminator::CondBranch {
                        cond: Cond::Eq,
                        taken: BlockId(1),
                        fallthrough: BlockId(2),
                    },
                },
                Block {
                    insns: vec![alu()],
                    terminator: Terminator::Branch(BlockId(2)),
                },
                Block {
                    insns: vec![alu()],
                    terminator: Terminator::Branch(BlockId(1)),
                },
            ],
            loop_bounds: Map::new(),
            frame_size: 0,
        };
        let mut p = Program::new();
        p.add_function(f);
        assert!(matches!(
            analyze_program(&p, &CycleModel::pg32()),
            Err(WcetError::IrreducibleCfg(_))
        ));
    }

    #[test]
    fn exclusive_branches_tighten_the_dag_bound() {
        // Two diamonds testing R0 (a parameter, never written): r0 < 3
        // guards a heavy arm, r0 > 7 guards another. Value-wise only one
        // can fire; the structural engine charges both.
        let heavy = |n: usize| Block {
            insns: (0..n).map(|_| alu()).collect(),
            terminator: Terminator::Branch(BlockId(3)),
        };
        let f = Function {
            name: "f".into(),
            blocks: vec![
                Block {
                    insns: vec![Insn::Cmp {
                        rn: Reg::R1,
                        src: Operand::Imm(3),
                    }],
                    terminator: Terminator::CondBranch {
                        cond: Cond::Lt,
                        taken: BlockId(1),
                        fallthrough: BlockId(2),
                    },
                },
                heavy(50),
                Block {
                    insns: vec![],
                    terminator: Terminator::Branch(BlockId(3)),
                },
                Block {
                    insns: vec![Insn::Cmp {
                        rn: Reg::R1,
                        src: Operand::Imm(7),
                    }],
                    terminator: Terminator::CondBranch {
                        cond: Cond::Gt,
                        taken: BlockId(4),
                        fallthrough: BlockId(5),
                    },
                },
                Block {
                    insns: (0..50).map(|_| alu()).collect(),
                    terminator: Terminator::Branch(BlockId(6)),
                },
                Block {
                    insns: vec![],
                    terminator: Terminator::Branch(BlockId(6)),
                },
                Block {
                    insns: vec![],
                    terminator: Terminator::Return,
                },
            ],
            loop_bounds: Map::new(),
            frame_size: 0,
        };
        let mut p = Program::new();
        p.add_function(f);
        let model = CycleModel::pg32();
        let ipet = analyze_program(&p, &model)
            .expect("ipet")
            .wcet_cycles("f")
            .expect("f");
        let structural = analyze_program_structural(&p, &model)
            .expect("structural")
            .wcet_cycles("f")
            .expect("f");
        // One heavy arm (50) plus one light arm; structurally both stack.
        assert!(structural >= ipet + 50, "{ipet} vs {structural}");
        // cmp(1)+taken(3)+50+b(3) + cmp(1)+nt(1)+b(3) + ret(4) = 66.
        assert_eq!(ipet, 66);
    }

    #[test]
    fn analysis_cache_replays_unchanged_functions() {
        let mut p = Program::new();
        p.add_function(straight_function("leaf", 7));
        let mut caller = straight_function("caller", 1);
        caller.blocks[0].insns.push(Insn::Call {
            func: "leaf".into(),
        });
        p.add_function(caller);
        let model = CycleModel::pg32();
        let cache = AnalysisCache::new();
        let a = analyze_program_cached(&p, &model, &cache).expect("first");
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        let b = analyze_program_cached(&p, &model, &cache).expect("second");
        assert_eq!(a, b);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        // Cached and uncached agree.
        assert_eq!(a, analyze_program(&p, &model).expect("uncached"));

        // Changing the *leaf* re-keys the caller too (its callee bound
        // is part of the key).
        let mut p2 = p.clone();
        p2.functions.get_mut("leaf").expect("leaf").blocks[0]
            .insns
            .push(alu());
        let c = analyze_program_cached(&p2, &model, &cache).expect("third");
        assert_eq!((cache.hits(), cache.misses()), (2, 4));
        assert!(c.wcet_cycles("caller") > a.wcet_cycles("caller"));
        assert_eq!(c, analyze_program(&p2, &model).expect("uncached"));
    }

    #[test]
    fn ipet_never_exceeds_structural_on_every_fixture() {
        let model = CycleModel::pg32();
        let fixtures: Vec<Function> = vec![
            straight_function("f", 5),
            loop_function(Some(8)),
            loop_function(Some(0)),
        ];
        for f in fixtures {
            let mut p = Program::new();
            p.add_function(f);
            let ipet = analyze_program(&p, &model)
                .expect("ipet")
                .wcet_cycles("f")
                .expect("f");
            let s = analyze_program_structural(&p, &model)
                .expect("structural")
                .wcet_cycles("f")
                .expect("f");
            assert!(ipet <= s, "{ipet} > {s}");
        }
    }
}
