//! # teamplay-wcet — static worst-case execution time analysis
//!
//! The reproduction's analogue of the aiT tool (paper ref \[6\]) that the
//! multi-criteria compiler invokes as a plug-in (Fig. 1). Because PG32 is
//! a *predictable* architecture — every instruction has a statically known
//! cycle cost — WCET analysis reduces to a flow problem, solved with a
//! genuine **IPET** (implicit path enumeration) formulation, the
//! technique the paper inherits from the WCC/aiT toolchain:
//!
//! 1. cost every basic block from the shared [`teamplay_isa::CycleModel`]
//!    (so the analyser and the simulator can never disagree on unit
//!    costs; only path feasibility is approximated) — conditional-branch
//!    costs are attached *per edge*, so a fall-through does not pay the
//!    taken-branch worst case;
//! 2. formulate per-edge execution-count flow constraints over the CFG:
//!    Kirchhoff conservation at every block, loop-bound caps on the
//!    back-edge counts (from CSL annotations, counted-loop inference, and
//!    the trip counts the compiler's `unroll` pass proves), and
//!    infeasible-path facts for mutually exclusive branches on the same
//!    unwritten register;
//! 3. solve the resulting max-cost flow problem **exactly** with an
//!    in-tree loop-nest dynamic program (reducible CFGs; no external LP
//!    crate, consistent with the vendored-offline rule; irreducible
//!    control flow is an error); and
//! 4. resolve calls callee-first over the (recursion-free) call graph
//!    ([`callee_first`]), handing each function its callees' bounds.
//!
//! One engine does all of it for every non-functional property. A
//! function's flow structure — reachability, the loop condensation
//! order, the edges with their branch predicates and the register write
//! masks — is prepared once and solved for any number of [`CostLane`]s
//! at a time: cycles from [`CycleModel`] here, millipicojoules from
//! `teamplay-energy`'s energy lane. That is how WCC's aiT and
//! EnergyAnalyser plug-ins share one constraint system with two
//! objective vectors. [`analyze`] is the entry point: a program, its
//! lanes, and a [`Preset`] — [`Preset::Ipet`], or the pre-IPET
//! [`Preset::Structural`] baseline kept for tightness measurement
//! (`BENCH_wcet.json` records the per-kernel ratios). On every program
//! the IPET bound is at most the structural bound and never below the
//! simulator's observed cycles; both properties are property-tested.
//!
//! [`bound_function`] is the per-function step on its own: the
//! compiler's variant search calls it from its own exact memo, keyed on
//! the compile memo's code identity and walked with [`callee_first`],
//! so the thousands of variants a Pareto search compiles never
//! re-analyse an unchanged function.
//!
//! That memo is the only one: nothing in this crate caches a result.
//! [`analyze_program`] is the one-lane IPET wrapper for the many callers
//! that want a [`WcetReport`]; [`analyze_program_cached`] is the same
//! call counted in an inert [`AnalysisCache`], kept with its signature
//! for the end-to-end benchmark's workflow replay.
//!
//! ```
//! use teamplay_isa::{CycleModel, Function, Program};
//! use teamplay_wcet::{analyze, analyze_program, Preset};
//!
//! let mut program = Program::new();
//! program.add_function(Function::stub("main"));
//! let model = CycleModel::pg32();
//! let report = analyze_program(&program, &model)?;
//! assert!(report.wcet_cycles("main").is_some());
//! let [ipet] = analyze(&program, [&model], Preset::Ipet)?["main"];
//! let [structural] = analyze(&program, [&model], Preset::Structural)?["main"];
//! assert!(ipet <= structural);
//! # Ok::<(), teamplay_wcet::WcetError>(())
//! ```

mod flow;

use flow::FlowStructure;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use teamplay_isa::{CycleModel, Function, Insn, Program, Terminator};

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

/// How a function's flow structure is solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// The exact IPET bound: edge-priced terminators, count-exact loop
    /// condensation, infeasible-path facts.
    Ipet,
    /// The pre-IPET baseline: every block pays its worst terminator and
    /// a loop costs `(bound + 1) ×` its worst iteration. The oracles
    /// check that IPET never exceeds it on compiled code, and the
    /// benches measure tightness against it.
    Structural,
}

/// One cost dimension of the analysis: how much a block body and a
/// terminator traversal cost. Bounds are integers in the lane's unit.
pub trait CostLane {
    /// The cost of one block's straight-line body; `callee(name)` is
    /// the called function's bound in this lane.
    fn body(&self, insns: &[Insn], callee: &dyn Fn(&str) -> u64) -> u64;

    /// One traversal of `t` along its taken (`true`) or fall-through
    /// (`false`) edge; for `Return`/`Halt` the flag is irrelevant.
    fn terminator(&self, t: &Terminator, taken: bool) -> u64;
}

/// The cycle lane (WCET).
impl CostLane for CycleModel {
    fn body(&self, insns: &[Insn], callee: &dyn Fn(&str) -> u64) -> u64 {
        let mut c = 0u64;
        for insn in insns {
            c = c.saturating_add(self.cycles(insn, false));
            if let Insn::Call { func } = insn {
                c = c.saturating_add(callee(func));
            }
        }
        c
    }

    fn terminator(&self, t: &Terminator, taken: bool) -> u64 {
        self.terminator_cycles(t, taken)
    }
}

/// The bounds of one function in every lane, given its callees (in
/// [`Function::callees`] order) and their bounds in the same order: its
/// flow structure is prepared once and solved for all lanes. A lane's
/// bound is the same whichever lanes are solved beside it.
///
/// # Errors
/// [`WcetError::UnboundedLoop`] or [`WcetError::IrreducibleCfg`].
///
/// # Panics
/// If `f` calls a function missing from `callees`.
pub fn bound_function<const L: usize>(
    f: &Function,
    callees: &[String],
    callee_bounds: &[[u64; L]],
    lanes: &[&dyn CostLane; L],
    preset: Preset,
) -> Result<[u64; L], WcetError> {
    let callee = |k: usize, name: &str| {
        let i = callees
            .iter()
            .position(|c| c == name)
            .expect("every called function is among the callees");
        callee_bounds[i][k]
    };
    FlowStructure::of(f).solve(preset, lanes, &callee)
}

/// Visit every function callee-first: `visit(i, callee_bounds)` gets
/// function `i` of `calls` and the results of its callees, in the order
/// `calls[i].1` lists them. `calls` is `(name, callee names)` per
/// function, in name order. Returns the results in `calls` order.
///
/// # Errors
/// [`WcetError::UnknownCallee`] for a callee not in `calls`,
/// [`WcetError::Recursion`] naming the caller whose call closes a cycle
/// (checked over the whole call graph before anything is visited), or
/// the first error of `visit`.
pub fn callee_first<B: Copy>(
    calls: &[(&str, &[String])],
    mut visit: impl FnMut(usize, &[B]) -> Result<B, WcetError>,
) -> Result<Vec<B>, WcetError> {
    let callees = calls
        .iter()
        .map(|(function, names)| {
            names
                .iter()
                .map(|callee| {
                    calls
                        .binary_search_by(|(n, _)| (*n).cmp(callee))
                        .map_err(|_| WcetError::UnknownCallee {
                            function: function.to_string(),
                            callee: callee.clone(),
                        })
                })
                .collect::<Result<Vec<usize>, WcetError>>()
        })
        .collect::<Result<Vec<_>, _>>()?;

    // Depth-first from each function in name order, callees in call
    // order; a function joins the order once all its callees have.
    #[derive(Clone, Copy, PartialEq)]
    enum Seen {
        No,
        OnStack,
        Done,
    }
    let mut seen = vec![Seen::No; calls.len()];
    let mut order = Vec::with_capacity(calls.len());
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..calls.len() {
        if seen[start] == Seen::Done {
            continue;
        }
        seen[start] = Seen::OnStack;
        stack.push((start, 0));
        while let Some((at, next)) = stack.last_mut() {
            let at = *at;
            let Some(&callee) = callees[at].get(*next) else {
                stack.pop();
                seen[at] = Seen::Done;
                order.push(at);
                continue;
            };
            *next += 1;
            match seen[callee] {
                Seen::OnStack => return Err(WcetError::Recursion(calls[at].0.to_string())),
                Seen::No => {
                    seen[callee] = Seen::OnStack;
                    stack.push((callee, 0));
                }
                Seen::Done => {}
            }
        }
    }

    let mut results: Vec<Option<B>> = vec![None; calls.len()];
    for at in order {
        let callee_results: Vec<B> = callees[at]
            .iter()
            .map(|&c| results[c].expect("callees are visited first"))
            .collect();
        results[at] = Some(visit(at, &callee_results)?);
    }
    Ok(results.into_iter().flatten().collect())
}

/// Bound every function of `program` in every lane under `preset`,
/// callee-first: the analysis entry point.
///
/// # Errors
/// [`WcetError::InvalidProgram`] if the program does not validate, then
/// as [`callee_first`] and [`bound_function`]: the first function in
/// callee-first order that fails names the error.
pub fn analyze<const L: usize>(
    program: &Program,
    lanes: [&dyn CostLane; L],
    preset: Preset,
) -> Result<BTreeMap<String, [u64; L]>, WcetError> {
    program.validate().map_err(WcetError::InvalidProgram)?;
    let functions: Vec<(&String, &Function, Vec<String>)> = program
        .functions
        .iter()
        .map(|(name, f)| (name, f, f.callees()))
        .collect();
    let calls: Vec<(&str, &[String])> = functions
        .iter()
        .map(|(name, _, callees)| (name.as_str(), callees.as_slice()))
        .collect();
    let bounds = callee_first(&calls, |i, callee_bounds| {
        let (_, f, callees) = &functions[i];
        bound_function(f, callees, callee_bounds, &lanes, preset)
    })?;
    Ok(functions
        .into_iter()
        .map(|(name, ..)| name.clone())
        .zip(bounds)
        .collect())
}

/// A counter of the functions analysed through
/// [`analyze_program_cached`] or `teamplay-energy`'s
/// `analyze_program_energy_cached`. It memoises nothing: the one
/// analysis memo is the compiler's, keyed on the compile memo's code
/// identity. The type is kept, with [`AnalysisCache::hits`] and
/// [`AnalysisCache::misses`], because the end-to-end benchmark's
/// workflow replay names it.
#[derive(Debug, Default)]
pub struct AnalysisCache {
    misses: AtomicUsize,
}

impl AnalysisCache {
    /// A counter at zero.
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// Record that `functions` more functions were analysed.
    pub fn record(&self, functions: usize) {
        self.misses.fetch_add(functions, Ordering::Relaxed);
    }

    /// Lookups answered from a memo: always 0.
    pub fn hits(&self) -> usize {
        0
    }

    /// Functions analysed through this counter.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Analyse a whole program with the IPET engine: every function gets a
/// WCET, resolved callee-first over the call graph. The one-lane
/// [`analyze`] in report form.
///
/// # Errors
/// See [`analyze`].
pub fn analyze_program(program: &Program, model: &CycleModel) -> Result<WcetReport, WcetError> {
    let per_function = analyze(program, [model], Preset::Ipet)?;
    Ok(WcetReport {
        per_function: per_function.into_iter().map(|(n, [w])| (n, w)).collect(),
    })
}

/// [`analyze_program`], counting the functions it analyses in `cache`
/// (see [`AnalysisCache`]: nothing is memoised).
///
/// # Errors
/// See [`analyze`].
pub fn analyze_program_cached(
    program: &Program,
    model: &CycleModel,
    cache: &AnalysisCache,
) -> Result<WcetReport, WcetError> {
    let report = analyze_program(program, model)?;
    cache.record(report.per_function.len());
    Ok(report)
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

    /// `f`'s bound under the structural preset.
    fn structural(p: &Program, model: &CycleModel) -> u64 {
        analyze(p, [model], Preset::Structural).expect("structural")["f"][0]
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
        let structural = structural(&p, &model);
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
        let structural = structural(&p, &model);
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
    fn mutual_recursion_is_rejected_and_a_call_chain_is_not() {
        let model = CycleModel::pg32();
        let calling = |name: &str, callee: &str| {
            let mut f = straight_function(name, 1);
            f.blocks[0].insns.push(Insn::Call {
                func: callee.into(),
            });
            f
        };
        let mut p = Program::new();
        p.add_function(calling("f", "g"));
        p.add_function(calling("g", "f"));
        assert!(matches!(
            analyze_program(&p, &model),
            Err(WcetError::Recursion(_))
        ));

        let mut q = Program::new();
        q.add_function(calling("a", "b"));
        q.add_function(straight_function("b", 1));
        assert!(analyze_program(&q, &model).is_ok());
    }

    #[test]
    fn recursion_error_names_a_function_on_the_cycle() {
        let mut p = Program::new();
        p.add_function(straight_function("aaa", 1));
        let mut fact = straight_function("fact", 0);
        fact.blocks[0].insns.push(Insn::Call {
            func: "fact".into(),
        });
        p.add_function(fact);
        assert_eq!(
            analyze_program(&p, &CycleModel::pg32()),
            Err(WcetError::Recursion("fact".into()))
        );
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
        let s = structural(&p, &CycleModel::pg32());
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
        // dominates the other, so there is no natural loop to condense.
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
        let structural = structural(&p, &model);
        // One heavy arm (50) plus one light arm; structurally both stack.
        assert!(structural >= ipet + 50, "{ipet} vs {structural}");
        // cmp(1)+taken(3)+50+b(3) + cmp(1)+nt(1)+b(3) + ret(4) = 66.
        assert_eq!(ipet, 66);
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
            let s = structural(&p, &model);
            assert!(ipet <= s, "{ipet} > {s}");
        }
    }
}
