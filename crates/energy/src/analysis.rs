//! Static worst-case energy consumption (WCEC) analysis.
//!
//! WCEC is one more cost lane of the `teamplay-wcet` engine: the
//! [`EnergyLane`] prices every block's instructions at their worst-case
//! picojoules plus per-cycle leakage, in integer millipicojoules, and the
//! engine solves the *same* flow structure with it — which is how WCC's
//! EnergyAnalyser plug-in shares flow facts with aiT in the paper's
//! toolchain: one constraint system (Kirchhoff conservation, loop-bound
//! caps, infeasible-path facts), two objective vectors. Pass it to
//! [`teamplay_wcet::analyze`] beside the cycle model to get both bounds
//! from one solve per function, under either preset. Terminator energy
//! and leakage ride the CFG *edges*, so a fall-through branch is charged
//! its actual single leakage cycle, and loop bodies are charged `bound`
//! times rather than `bound + 1` — WCEC tightens exactly as WCET does.
//! With a conservative model the result remains a safe upper bound on
//! the energy of any run (the property tests check this against the
//! simulator's ground truth).
//!
//! [`analyze_program_energy`] is the one-lane IPET wrapper in picojoules
//! for the callers that want an [`EnergyReport`]. Nothing here caches a
//! result: the one analysis memo is the compiler's, keyed on code
//! identity. [`analyze_program_energy_cached`] is the same call counted
//! in an inert [`AnalysisCache`], kept with its signature for the
//! end-to-end benchmark's workflow replay.

use crate::model::IsaEnergyModel;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use teamplay_isa::{CycleModel, EnergyClass, Function, Insn, Program, Terminator};
use teamplay_wcet::{analyze, AnalysisCache, CostLane, Preset, WcetError};

/// Scale factor: picojoules are analysed in integer millipicojoules so
/// the integer flow engine can be reused without rounding drift.
const MILLI: f64 = 1000.0;

/// A bound of the [`EnergyLane`] in picojoules.
pub fn mpj_to_pj(mpj: u64) -> f64 {
    mpj as f64 / MILLI
}

/// Per-program WCEC results (picojoules).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyReport {
    per_function: BTreeMap<String, f64>,
}

impl EnergyReport {
    /// A report of per-function [`EnergyLane`] bounds.
    fn of_mpj(bounds: impl IntoIterator<Item = (String, u64)>) -> EnergyReport {
        EnergyReport {
            per_function: bounds.into_iter().map(|(n, e)| (n, mpj_to_pj(e))).collect(),
        }
    }

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

/// The worst-case energy lane, in millipicojoules: each instruction's
/// worst-case switching energy plus the leakage of its cycles, rounded
/// up once per block body; each terminator traversal likewise, with the
/// leakage of the cycles that traversal actually takes (a fall-through
/// leaks for one cycle, not three). Callee bounds are added unrounded.
#[derive(Debug, Clone, Copy)]
pub struct EnergyLane<'m> {
    energy: &'m IsaEnergyModel,
    cycles: &'m CycleModel,
}

impl<'m> EnergyLane<'m> {
    /// The lane of `energy` on a processor timed by `cycles`.
    pub fn new(energy: &'m IsaEnergyModel, cycles: &'m CycleModel) -> EnergyLane<'m> {
        EnergyLane { energy, cycles }
    }
}

impl CostLane for EnergyLane<'_> {
    fn body(&self, insns: &[Insn], callee: &dyn Fn(&str) -> u64) -> u64 {
        let mut pj = 0.0f64;
        let mut cycles = 0u64;
        let mut callee_mpj = 0u64;
        for insn in insns {
            let regs_moved = match insn {
                Insn::Push { regs } | Insn::Pop { regs } => regs.len(),
                _ => 0,
            };
            pj += self
                .energy
                .worst_case_insn(EnergyClass::of_insn(insn), regs_moved);
            cycles += self.cycles.cycles(insn, false);
            if let Insn::Call { func } = insn {
                callee_mpj = callee_mpj.saturating_add(callee(func));
            }
        }
        pj += self.energy.leakage_per_cycle * cycles as f64;
        ((pj * MILLI).ceil() as u64).saturating_add(callee_mpj)
    }

    fn terminator(&self, t: &Terminator, taken: bool) -> u64 {
        let pj = self
            .energy
            .worst_case_insn(EnergyClass::of_terminator(t), 0)
            + self.energy.leakage_per_cycle * self.cycles.terminator_cycles(t, taken) as f64;
        (pj * MILLI).ceil() as u64
    }
}

/// Static WCEC analysis of every function in the program (IPET engine),
/// resolved callee-first over the (recursion-free) call graph: the
/// one-lane [`teamplay_wcet::analyze`] in picojoules.
///
/// # Errors
/// The same classes of error as the WCET analysis (unbounded loops,
/// recursion, unknown callees).
pub fn analyze_program_energy(
    program: &Program,
    energy_model: &IsaEnergyModel,
    cycle_model: &CycleModel,
) -> Result<EnergyReport, WcetError> {
    let lane = EnergyLane::new(energy_model, cycle_model);
    let bounds = analyze(program, [&lane], Preset::Ipet)?;
    Ok(EnergyReport::of_mpj(
        bounds.into_iter().map(|(n, [e])| (n, e)),
    ))
}

/// [`analyze_program_energy`], counting the functions it analyses in
/// `cache` ([`AnalysisCache`] memoises nothing). Kept, with its
/// signature, for the end-to-end benchmark's workflow replay.
///
/// # Errors
/// See [`analyze_program_energy`].
pub fn analyze_program_energy_cached(
    program: &Program,
    energy_model: &IsaEnergyModel,
    cycle_model: &CycleModel,
    cache: &AnalysisCache,
) -> Result<EnergyReport, WcetError> {
    let report = analyze_program_energy(program, energy_model, cycle_model)?;
    cache.record(report.per_function.len());
    Ok(report)
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
