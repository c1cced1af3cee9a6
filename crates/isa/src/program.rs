//! CFG-structured PG32 programs.
//!
//! The compiler keeps programs in control-flow-graph form all the way down
//! to "binary" level: a [`Function`] is a list of [`Block`]s, each ending in
//! a single [`Terminator`]. The WCET and energy analysers consume this form
//! directly (the paper's WCC compiler likewise analyses its own CFG and
//! relays it to aiT), and the cycle simulator executes it.

use crate::insn::Insn;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Index of a basic block within its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block's index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ".L{}", self.0)
    }
}

/// How control leaves a basic block.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional branch.
    Branch(BlockId),
    /// Branch to `taken` if the last `cmp` satisfied `cond`, otherwise fall
    /// through to `fallthrough`.
    CondBranch {
        cond: crate::insn::Cond,
        taken: BlockId,
        fallthrough: BlockId,
    },
    /// Return to the caller (result in `r0` by convention).
    Return,
    /// Stop the machine (only valid in the entry function).
    Halt,
}

impl Terminator {
    /// Successor blocks, in `(taken, fallthrough)` order for conditionals.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Branch(t) => vec![*t],
            Terminator::CondBranch {
                taken, fallthrough, ..
            } => vec![*taken, *fallthrough],
            Terminator::Return | Terminator::Halt => Vec::new(),
        }
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Block {
    /// Straight-line body (calls allowed; branches are not).
    pub insns: Vec<Insn>,
    /// The unique exit.
    pub terminator: Terminator,
}

impl Block {
    /// A block with no instructions and the given terminator.
    pub fn empty(terminator: Terminator) -> Block {
        Block {
            insns: Vec::new(),
            terminator,
        }
    }
}

/// A PG32 function in CFG form.
///
/// `loop_bounds` maps loop-header blocks to the maximum number of *body
/// iterations* per entry to the loop (so the header itself executes at
/// most `bound + 1` times — once more for the final exit check); the
/// bounds originate from the Mini-C loop-bound inference, from CSL
/// `loop bound(...)` annotations, or from the trip counts the compiler
/// proves, and are what makes static WCET analysis possible (paper
/// Section II-A).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Maximum body iterations per loop entry, keyed by header block.
    pub loop_bounds: BTreeMap<BlockId, u32>,
    /// Bytes of stack frame the function owns (spill slots + locals).
    pub frame_size: u32,
}

impl Function {
    /// A function with a single empty block returning immediately.
    pub fn stub(name: impl Into<String>) -> Function {
        Function {
            name: name.into(),
            blocks: vec![Block::empty(Terminator::Return)],
            loop_bounds: BTreeMap::new(),
            frame_size: 0,
        }
    }

    /// The entry block id (always block 0).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// The block with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range; ids are created by the compiler and
    /// are always valid for the function that owns them.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Total number of instructions across all blocks (terminators count
    /// as one instruction each, matching the encoder).
    pub fn insn_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insns.len() + 1).sum()
    }

    /// Names of every function this function calls, in program order,
    /// with duplicates removed.
    pub fn callees(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for b in &self.blocks {
            for i in &b.insns {
                if let Insn::Call { func } = i {
                    if !seen.contains(func) {
                        seen.push(func.clone());
                    }
                }
            }
        }
        seen
    }

    /// Check structural invariants: every terminator target is in range and
    /// every loop-bound key names an existing block.
    ///
    /// # Errors
    /// Returns a human-readable description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.blocks.is_empty() {
            return Err(format!("function {}: no blocks", self.name));
        }
        for (i, b) in self.blocks.iter().enumerate() {
            for s in b.terminator.successors() {
                if s.index() >= self.blocks.len() {
                    return Err(format!(
                        "function {}: block {} branches to out-of-range {}",
                        self.name, i, s
                    ));
                }
            }
        }
        for id in self.loop_bounds.keys() {
            if id.index() >= self.blocks.len() {
                return Err(format!(
                    "function {}: loop bound on non-existent block {}",
                    self.name, id
                ));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", self.name)?;
        for (i, b) in self.blocks.iter().enumerate() {
            writeln!(f, ".L{i}:")?;
            for insn in &b.insns {
                writeln!(f, "    {insn}")?;
            }
            match &b.terminator {
                Terminator::Branch(t) => writeln!(f, "    b {t}")?,
                Terminator::CondBranch {
                    cond,
                    taken,
                    fallthrough,
                } => writeln!(f, "    b{cond} {taken}  ; else {fallthrough}")?,
                Terminator::Return => writeln!(f, "    ret")?,
                Terminator::Halt => writeln!(f, "    halt")?,
            }
        }
        Ok(())
    }
}

/// A complete PG32 program: functions plus initialised global data.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Program {
    /// All functions, keyed by name.
    pub functions: BTreeMap<String, Function>,
    /// Initialised global words, keyed by symbol; the simulator places them
    /// in its data segment and exposes their addresses.
    pub globals: BTreeMap<String, Vec<i32>>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Insert (or replace) a function.
    pub fn add_function(&mut self, f: Function) {
        self.functions.insert(f.name.clone(), f);
    }

    /// Look up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.get(name)
    }

    /// Total instruction count over all functions — the code-size metric
    /// reported alongside time and energy.
    pub fn insn_count(&self) -> usize {
        self.functions.values().map(Function::insn_count).sum()
    }

    /// Validate every function and check that all call targets exist.
    ///
    /// # Errors
    /// Returns the first structural violation found.
    pub fn validate(&self) -> Result<(), String> {
        for f in self.functions.values() {
            f.validate()?;
            for callee in f.callees() {
                if !self.functions.contains_key(&callee) {
                    return Err(format!("function {} calls unknown {}", f.name, callee));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{AluOp, Cond, Insn, Operand, Reg};

    fn add_insn() -> Insn {
        Insn::Alu {
            op: AluOp::Add,
            rd: Reg::R0,
            rn: Reg::R0,
            src: Operand::Imm(1),
        }
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(
            Terminator::Branch(BlockId(3)).successors(),
            vec![BlockId(3)]
        );
        let c = Terminator::CondBranch {
            cond: Cond::Eq,
            taken: BlockId(1),
            fallthrough: BlockId(2),
        };
        assert_eq!(c.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(Terminator::Return.successors().is_empty());
    }

    #[test]
    fn validate_rejects_out_of_range_branch() {
        let f = Function {
            name: "f".into(),
            blocks: vec![Block::empty(Terminator::Branch(BlockId(7)))],
            loop_bounds: BTreeMap::new(),
            frame_size: 0,
        };
        assert!(f.validate().is_err());
    }

    #[test]
    fn validate_rejects_unknown_callee() {
        let mut p = Program::new();
        let mut f = Function::stub("main");
        f.blocks[0].insns.push(Insn::Call {
            func: "ghost".into(),
        });
        p.add_function(f);
        let err = p.validate().unwrap_err();
        assert!(err.contains("ghost"), "{err}");
    }

    #[test]
    fn callees_deduplicates_in_order() {
        let mut f = Function::stub("main");
        for name in ["a", "b", "a"] {
            f.blocks[0].insns.push(Insn::Call { func: name.into() });
        }
        assert_eq!(f.callees(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn insn_count_includes_terminators() {
        let mut f = Function::stub("f");
        f.blocks[0].insns.push(add_insn());
        assert_eq!(f.insn_count(), 2);
    }

    #[test]
    fn display_renders_blocks() {
        let f = Function::stub("tiny");
        let text = f.to_string();
        assert!(text.contains("tiny:"));
        assert!(text.contains("ret"));
    }
}
