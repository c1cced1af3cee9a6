//! Static worst-case energy consumption (WCEC) analysis.
//!
//! Mirrors the WCET analysis exactly — per-block worst-case picojoule
//! costs fed to the *same IPET flow solver*
//! (`teamplay_wcet::flow_bound_with`) — which is how WCC's
//! EnergyAnalyser plug-in shares flow facts with aiT in the paper's
//! toolchain: one constraint system (Kirchhoff conservation, loop-bound
//! caps, infeasible-path facts), two objective vectors. Terminator
//! energy and leakage ride the CFG *edges*, so a fall-through branch is
//! charged its actual single leakage cycle, and loop bodies are charged
//! `bound` times rather than `bound + 1` — WCEC tightens exactly as WCET
//! does. With a conservative model the result remains a safe upper bound
//! on the energy of any run (the property tests check this against the
//! simulator's ground truth); the pre-IPET engine survives as
//! [`analyze_program_energy_structural`] for tightness measurement.

use crate::model::IsaEnergyModel;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use teamplay_isa::{CycleModel, EnergyClass, Function, Insn, Program, Terminator};
use teamplay_wcet::{
    flow_bound_with, resolve_bottom_up, structural_bound_with, AnalysisCache, WcetError,
};

/// Scale factor: picojoules are analysed in integer millipicojoules so
/// the shared integer flow solver can be reused without rounding drift.
const MILLI: f64 = 1000.0;

/// Per-program WCEC results (picojoules).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyReport {
    per_function: BTreeMap<String, f64>,
}

impl EnergyReport {
    /// Worst-case energy for a function in picojoules.
    pub fn wcec_pj(&self, function: &str) -> Option<f64> {
        self.per_function.get(function).copied()
    }

    /// Worst-case energy in nanojoules.
    pub fn wcec_nj(&self, function: &str) -> Option<f64> {
        self.wcec_pj(function).map(|e| e / 1e3)
    }

    /// Worst-case energy in microjoules.
    pub fn wcec_uj(&self, function: &str) -> Option<f64> {
        self.wcec_pj(function).map(|e| e / 1e6)
    }

    /// Iterate all `(function, wcec_pj)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.per_function.iter().map(|(n, e)| (n.as_str(), *e))
    }
}

/// Per-block instruction-body energy in millipicojoules (terminators
/// excluded, callee WCECs and per-cycle leakage folded in).
fn body_costs_mpj(
    f: &Function,
    energy_model: &IsaEnergyModel,
    cycle_model: &CycleModel,
    callee_mpj: &BTreeMap<String, u64>,
) -> Result<Vec<u64>, WcetError> {
    let mut cost = vec![0u64; f.blocks.len()];
    for (i, b) in f.blocks.iter().enumerate() {
        let mut pj = 0.0f64;
        let mut cycles = 0u64;
        let mut extra_mpj = 0u64;
        for insn in &b.insns {
            let class = EnergyClass::of_insn(insn);
            let regs_moved = match insn {
                Insn::Push { regs } | Insn::Pop { regs } => regs.len(),
                _ => 0,
            };
            pj += energy_model.worst_case_insn(class, regs_moved);
            cycles += cycle_model.cycles(insn, false);
            if let Insn::Call { func } = insn {
                let callee = callee_mpj
                    .get(func)
                    .ok_or_else(|| WcetError::UnknownCallee {
                        function: f.name.clone(),
                        callee: func.clone(),
                    })?;
                extra_mpj = extra_mpj.saturating_add(*callee);
            }
        }
        pj += energy_model.leakage_per_cycle * cycles as f64;
        cost[i] = (pj * MILLI).ceil() as u64 + extra_mpj;
    }
    Ok(cost)
}

/// One terminator traversal in millipicojoules: its switching class
/// plus the leakage of the cycles that traversal actually takes (the
/// per-edge `taken` flag is the IPET tightening — a fall-through leaks
/// for one cycle, not three).
fn term_cost_mpj(
    t: &Terminator,
    taken: bool,
    energy_model: &IsaEnergyModel,
    cycle_model: &CycleModel,
) -> u64 {
    let pj = energy_model.worst_case_insn(EnergyClass::of_terminator(t), 0)
        + energy_model.leakage_per_cycle * cycle_model.terminator_cycles(t, taken) as f64;
    (pj * MILLI).ceil() as u64
}

/// Worst-case energy of one function given callee results, in
/// millipicojoules (internal): the shared IPET flow solver over energy
/// costs.
fn function_wcec_mpj(
    f: &Function,
    energy_model: &IsaEnergyModel,
    cycle_model: &CycleModel,
    callee_mpj: &BTreeMap<String, u64>,
) -> Result<u64, WcetError> {
    let cost = body_costs_mpj(f, energy_model, cycle_model, callee_mpj)?;
    flow_bound_with(f, &cost, &|t, taken| {
        term_cost_mpj(t, taken, energy_model, cycle_model)
    })
}

/// [`function_wcec_mpj`] under the pre-IPET structural engine (worst
/// terminator folded into every block, loops at `(bound + 1) ×` the
/// worst iteration) — the WCEC tightness baseline.
fn function_wcec_mpj_structural(
    f: &Function,
    energy_model: &IsaEnergyModel,
    cycle_model: &CycleModel,
    callee_mpj: &BTreeMap<String, u64>,
) -> Result<u64, WcetError> {
    let cost = body_costs_mpj(f, energy_model, cycle_model, callee_mpj)?;
    structural_bound_with(f, &cost, &|t, taken| {
        term_cost_mpj(t, taken, energy_model, cycle_model)
    })
}

/// Wrap the shared `teamplay-wcet` bottom-up driver (validation,
/// recursion rejection, callee-first ordering, content-hash cache
/// routing — one policy for both metrics) and scale the resolved
/// millipicojoule bounds back to picojoules.
fn analyze_energy_with(
    program: &Program,
    cache: Option<&AnalysisCache>,
    analyse: impl Fn(&Function, &BTreeMap<String, u64>) -> Result<u64, WcetError>,
) -> Result<EnergyReport, WcetError> {
    let per_function = resolve_bottom_up(program, cache, analyse)?
        .into_iter()
        .map(|(n, mpj)| (n, mpj as f64 / MILLI))
        .collect();
    Ok(EnergyReport { per_function })
}

/// Static WCEC analysis of every function in the program (IPET engine),
/// resolved bottom-up over the (recursion-free) call graph.
///
/// # Errors
/// The same classes of error as the WCET analysis (unbounded loops,
/// recursion, unknown callees).
pub fn analyze_program_energy(
    program: &Program,
    energy_model: &IsaEnergyModel,
    cycle_model: &CycleModel,
) -> Result<EnergyReport, WcetError> {
    analyze_energy_with(program, None, |f, callees| {
        function_wcec_mpj(f, energy_model, cycle_model, callees)
    })
}

/// [`analyze_program_energy`] with per-function memoization: unchanged
/// functions (same content hash, same callee bounds) are answered from
/// `cache`. Use one cache per (energy-model, cycle-model) pair — the
/// models are not part of the key.
///
/// # Errors
/// See [`analyze_program_energy`].
pub fn analyze_program_energy_cached(
    program: &Program,
    energy_model: &IsaEnergyModel,
    cycle_model: &CycleModel,
    cache: &AnalysisCache,
) -> Result<EnergyReport, WcetError> {
    analyze_energy_with(program, Some(cache), |f, callees| {
        function_wcec_mpj(f, energy_model, cycle_model, callees)
    })
}

/// Whole-program WCEC under the structural baseline engine — the
/// tightness denominator next to [`analyze_program_energy`].
///
/// # Errors
/// See [`analyze_program_energy`].
pub fn analyze_program_energy_structural(
    program: &Program,
    energy_model: &IsaEnergyModel,
    cycle_model: &CycleModel,
) -> Result<EnergyReport, WcetError> {
    analyze_energy_with(program, None, |f, callees| {
        function_wcec_mpj_structural(f, energy_model, cycle_model, callees)
    })
}

/// Quick sanity statistic: the set of energy classes a function actually
/// uses (useful in reports and tests).
pub fn classes_used(f: &Function) -> HashSet<EnergyClass> {
    let mut set = HashSet::new();
    for b in &f.blocks {
        for insn in &b.insns {
            set.insert(EnergyClass::of_insn(insn));
        }
        set.insert(EnergyClass::of_terminator(&b.terminator));
    }
    set
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

    fn straight(name: &str, n: usize) -> Function {
        Function {
            name: name.into(),
            blocks: vec![Block {
                insns: (0..n).map(|_| alu()).collect(),
                terminator: Terminator::Return,
            }],
            loop_bounds: Map::new(),
            frame_size: 0,
        }
    }

    #[test]
    fn straight_line_energy_is_exact_sum() {
        let mut p = Program::new();
        p.add_function(straight("f", 3));
        let m = IsaEnergyModel::pg32_datasheet();
        let cm = CycleModel::pg32();
        let r = analyze_program_energy(&p, &m, &cm).expect("analysis");
        let expected = 3.0 * m.worst_case_insn(EnergyClass::Alu, 0)
            + m.worst_case_insn(EnergyClass::Branch, 0)
            + m.leakage_per_cycle * (3.0 + 4.0);
        let got = r.wcec_pj("f").expect("f");
        assert!((got - expected).abs() < 1e-2, "{got} vs {expected}");
    }

    #[test]
    fn loops_scale_energy_with_bound() {
        let make = |bound: u32| {
            let mut loop_bounds = Map::new();
            loop_bounds.insert(BlockId(1), bound);
            let f = Function {
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
                        insns: vec![alu(), alu()],
                        terminator: Terminator::Branch(BlockId(1)),
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
            p
        };
        let m = IsaEnergyModel::pg32_datasheet();
        let cm = CycleModel::pg32();
        let e4 = analyze_program_energy(&make(4), &m, &cm)
            .expect("e4")
            .wcec_pj("f")
            .expect("f");
        let e8 = analyze_program_energy(&make(8), &m, &cm)
            .expect("e8")
            .wcec_pj("f")
            .expect("f");
        assert!(
            e8 > e4 * 1.5,
            "energy must grow with the bound: {e4} -> {e8}"
        );
    }

    #[test]
    fn calls_include_callee_energy() {
        let mut p = Program::new();
        p.add_function(straight("leaf", 10));
        let mut caller = straight("caller", 0);
        caller.blocks[0].insns.push(Insn::Call {
            func: "leaf".into(),
        });
        p.add_function(caller);
        let m = IsaEnergyModel::pg32_datasheet();
        let cm = CycleModel::pg32();
        let r = analyze_program_energy(&p, &m, &cm).expect("analysis");
        assert!(r.wcec_pj("caller").expect("caller") > r.wcec_pj("leaf").expect("leaf"));
    }

    #[test]
    fn mul_heavy_code_costs_more_than_alu_heavy() {
        let mul = Insn::Alu {
            op: AluOp::Mul,
            rd: Reg::R0,
            rn: Reg::R0,
            src: Operand::Reg(Reg::R1),
        };
        let mut p = Program::new();
        p.add_function(straight("adds", 20));
        let mut f = straight("muls", 0);
        f.blocks[0].insns = (0..20).map(|_| mul.clone()).collect();
        p.add_function(f);
        let m = IsaEnergyModel::pg32_datasheet();
        let cm = CycleModel::pg32();
        let r = analyze_program_energy(&p, &m, &cm).expect("analysis");
        assert!(r.wcec_pj("muls").expect("muls") > r.wcec_pj("adds").expect("adds"));
    }

    #[test]
    fn unit_conversions() {
        let mut p = Program::new();
        p.add_function(straight("f", 1));
        let r = analyze_program_energy(&p, &IsaEnergyModel::pg32_datasheet(), &CycleModel::pg32())
            .expect("analysis");
        let pj = r.wcec_pj("f").expect("f");
        assert!((r.wcec_nj("f").expect("f") - pj / 1e3).abs() < 1e-12);
        assert!((r.wcec_uj("f").expect("f") - pj / 1e6).abs() < 1e-12);
    }

    #[test]
    fn classes_used_reports_actual_mix() {
        let f = straight("f", 2);
        let used = classes_used(&f);
        assert!(used.contains(&EnergyClass::Alu));
        assert!(used.contains(&EnergyClass::Branch));
        assert!(!used.contains(&EnergyClass::Mul));
    }
}
