//! PG32 instruction definitions.
//!
//! PG32 is a load/store architecture with sixteen 32-bit registers. It is
//! modelled loosely on the ARMv6-M (Cortex-M0) profile used by the paper's
//! camera-pill and deep-learning use cases: a single-issue in-order core
//! without caches, so every instruction has a fixed, statically known cost.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A PG32 general-purpose register.
///
/// `R13` is used by convention as the stack pointer, `R14` as the link
/// register. The program counter is not architecturally visible.
///
/// ```
/// use teamplay_isa::Reg;
/// assert_eq!(Reg::SP, Reg::R13);
/// assert_eq!(Reg::from_index(2), Some(Reg::R2));
/// assert_eq!(Reg::R7.index(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Reg {
    R0,
    R1,
    R2,
    R3,
    R4,
    R5,
    R6,
    R7,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    R15,
}

impl Reg {
    /// Conventional stack pointer.
    pub const SP: Reg = Reg::R13;
    /// Conventional link register.
    pub const LR: Reg = Reg::R14;
    /// Scratch register reserved for the code generator.
    pub const SCRATCH: Reg = Reg::R12;

    /// All sixteen registers in index order.
    pub const ALL: [Reg; 16] = [
        Reg::R0,
        Reg::R1,
        Reg::R2,
        Reg::R3,
        Reg::R4,
        Reg::R5,
        Reg::R6,
        Reg::R7,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
    ];

    /// The register's index, 0–15.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The register with the given index, or `None` if `idx >= 16`.
    pub fn from_index(idx: usize) -> Option<Reg> {
        Reg::ALL.get(idx).copied()
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::R13 => write!(f, "sp"),
            Reg::R14 => write!(f, "lr"),
            r => write!(f, "r{}", r.index()),
        }
    }
}

/// Arithmetic/logic operations available to [`Insn::Alu`].
///
/// `Mul` and `Div` are the interesting ones for the ETS trade-off study:
/// on PG32 the hardware multiplier is *fast but power-hungry* (single
/// cycle, high energy class), which is exactly the kind of sweet-spot
/// structure the paper's multi-criteria compiler exploits (Section III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (fast multiplier).
    Mul,
    /// Signed division; division by zero yields zero (hardware convention).
    Div,
    /// Signed remainder; remainder by zero yields zero.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Orr,
    /// Bitwise exclusive or.
    Eor,
    /// Logical shift left (shift amount taken modulo 32).
    Lsl,
    /// Logical shift right (shift amount taken modulo 32).
    Lsr,
    /// Arithmetic shift right (shift amount taken modulo 32).
    Asr,
}

impl AluOp {
    /// Every ALU operation, used by the encoder and by property tests.
    pub const ALL: [AluOp; 11] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::And,
        AluOp::Orr,
        AluOp::Eor,
        AluOp::Lsl,
        AluOp::Lsr,
        AluOp::Asr,
    ];

    /// Textual mnemonic, e.g. `"add"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::And => "and",
            AluOp::Orr => "orr",
            AluOp::Eor => "eor",
            AluOp::Lsl => "lsl",
            AluOp::Lsr => "lsr",
            AluOp::Asr => "asr",
        }
    }

    /// Apply the operation to two 32-bit values, following PG32 semantics
    /// (wrapping arithmetic, zero result on division by zero).
    pub fn eval(self, a: i32, b: i32) -> i32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            AluOp::And => a & b,
            AluOp::Orr => a | b,
            AluOp::Eor => a ^ b,
            AluOp::Lsl => ((a as u32) << (b as u32 & 31)) as i32,
            AluOp::Lsr => ((a as u32) >> (b as u32 & 31)) as i32,
            AluOp::Asr => a >> (b as u32 & 31),
        }
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Condition codes for [`crate::Terminator::CondBranch`] and conditional
/// select. Conditions are evaluated against the flags set by [`Insn::Cmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cond {
    /// Equal (`Z`).
    Eq,
    /// Not equal (`!Z`).
    Ne,
    /// Signed less than.
    Lt,
    /// Signed less or equal.
    Le,
    /// Signed greater than.
    Gt,
    /// Signed greater or equal.
    Ge,
}

impl Cond {
    /// Every condition code.
    pub const ALL: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge];

    /// The negation of the condition, e.g. `Eq.negate() == Ne`.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
        }
    }

    /// Evaluate the condition for a comparison `a ? b` (the machine's
    /// `i32` flags, or wider values that must not wrap).
    pub fn holds<T: Ord>(self, a: T, b: T) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
        }
    }

    /// Textual mnemonic suffix, e.g. `"eq"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ge => "ge",
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// The flexible second operand of data-processing instructions: either a
/// register or a 16-bit signed immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// A register operand.
    Reg(Reg),
    /// A signed immediate; the encoder restricts it to 16 bits, larger
    /// constants must be materialised with [`Insn::MovImm32`].
    Imm(i32),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "#{v}"),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

/// A PG32 instruction.
///
/// Control transfer between basic blocks is expressed by the block
/// [`crate::Terminator`], not by instructions, so a `Block` body contains
/// only straight-line instructions (including calls, which return).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Insn {
    /// `rd = rn <op> src`.
    Alu {
        op: AluOp,
        rd: Reg,
        rn: Reg,
        src: Operand,
    },
    /// `rd = src` (register move or 16-bit immediate).
    Mov { rd: Reg, src: Operand },
    /// `rd = imm` for a full 32-bit constant (costs an extra fetch cycle).
    MovImm32 { rd: Reg, imm: i32 },
    /// Compare `rn` with `src` and set the flags.
    Cmp { rn: Reg, src: Operand },
    /// Conditional select: `rd = if cond { rt } else { rf }`.
    ///
    /// This is the constant-time primitive used by the ladderisation
    /// hardening pass (paper refs \[11\], \[12\]); its timing never depends
    /// on the condition.
    Csel {
        cond: Cond,
        rd: Reg,
        rt: Reg,
        rf: Reg,
    },
    /// Load a 32-bit word: `rd = mem[base + offset]` (byte-addressed).
    Ldr { rd: Reg, base: Reg, offset: Operand },
    /// Store a 32-bit word: `mem[base + offset] = rs`.
    Str { rs: Reg, base: Reg, offset: Operand },
    /// Push registers onto the stack (ascending register order).
    Push { regs: Vec<Reg> },
    /// Pop registers off the stack (reverse of [`Insn::Push`]).
    Pop { regs: Vec<Reg> },
    /// Call a function by name; returns to the following instruction.
    Call { func: String },
    /// Read a word from an I/O port into `rd` (sensor input).
    In { rd: Reg, port: u8 },
    /// Write a word from `rs` to an I/O port (radio/actuator output).
    Out { rs: Reg, port: u8 },
    /// Do nothing for one cycle.
    Nop,
}

impl Insn {
    /// `true` if this instruction may write to `reg`.
    pub fn writes(&self, reg: Reg) -> bool {
        match self {
            Insn::Alu { rd, .. }
            | Insn::Mov { rd, .. }
            | Insn::MovImm32 { rd, .. }
            | Insn::Csel { rd, .. }
            | Insn::Ldr { rd, .. }
            | Insn::In { rd, .. } => *rd == reg,
            Insn::Pop { regs } => regs.contains(&reg) || reg == Reg::SP,
            Insn::Push { .. } => reg == Reg::SP,
            Insn::Call { .. } => reg == Reg::R0 || reg == Reg::LR,
            _ => false,
        }
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Insn::Alu { op, rd, rn, src } => write!(f, "{op} {rd}, {rn}, {src}"),
            Insn::Mov { rd, src } => write!(f, "mov {rd}, {src}"),
            Insn::MovImm32 { rd, imm } => write!(f, "mov32 {rd}, #{imm}"),
            Insn::Cmp { rn, src } => write!(f, "cmp {rn}, {src}"),
            Insn::Csel { cond, rd, rt, rf } => write!(f, "csel{cond} {rd}, {rt}, {rf}"),
            Insn::Ldr { rd, base, offset } => write!(f, "ldr {rd}, [{base}, {offset}]"),
            Insn::Str { rs, base, offset } => write!(f, "str {rs}, [{base}, {offset}]"),
            Insn::Push { regs } => {
                write!(f, "push {{")?;
                for (i, r) in regs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{r}")?;
                }
                write!(f, "}}")
            }
            Insn::Pop { regs } => {
                write!(f, "pop {{")?;
                for (i, r) in regs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{r}")?;
                }
                write!(f, "}}")
            }
            Insn::Call { func } => write!(f, "bl {func}"),
            Insn::In { rd, port } => write!(f, "in {rd}, p{port}"),
            Insn::Out { rs, port } => write!(f, "out {rs}, p{port}"),
            Insn::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_index_round_trip() {
        for (i, r) in Reg::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(Reg::from_index(i), Some(*r));
        }
        assert_eq!(Reg::from_index(16), None);
    }

    #[test]
    fn register_display_names() {
        assert_eq!(Reg::R0.to_string(), "r0");
        assert_eq!(Reg::SP.to_string(), "sp");
        assert_eq!(Reg::LR.to_string(), "lr");
    }

    #[test]
    fn alu_eval_wrapping_and_div_by_zero() {
        assert_eq!(AluOp::Add.eval(i32::MAX, 1), i32::MIN);
        assert_eq!(AluOp::Div.eval(17, 0), 0);
        assert_eq!(AluOp::Rem.eval(17, 0), 0);
        assert_eq!(AluOp::Div.eval(17, 5), 3);
        assert_eq!(AluOp::Rem.eval(17, 5), 2);
    }

    #[test]
    fn alu_eval_shifts_mask_amount() {
        assert_eq!(AluOp::Lsl.eval(1, 33), 2);
        assert_eq!(AluOp::Lsr.eval(-1, 28), 0xF);
        assert_eq!(AluOp::Asr.eval(-8, 2), -2);
    }

    #[test]
    fn cond_negation_is_involutive_and_exact() {
        for c in Cond::ALL {
            assert_eq!(c.negate().negate(), c);
            for (a, b) in [(0, 0), (1, 2), (2, 1), (-3, 3)] {
                assert_eq!(c.holds(a, b), !c.negate().holds(a, b), "{c:?} {a} {b}");
            }
        }
    }

    #[test]
    fn writes_tracks_destinations() {
        let i = Insn::Alu {
            op: AluOp::Add,
            rd: Reg::R3,
            rn: Reg::R1,
            src: Operand::Imm(1),
        };
        assert!(i.writes(Reg::R3));
        assert!(!i.writes(Reg::R1));
        let p = Insn::Push {
            regs: vec![Reg::R4],
        };
        assert!(p.writes(Reg::SP));
        assert!(!p.writes(Reg::R4));
    }

    #[test]
    fn display_formats_are_assembly_like() {
        let i = Insn::Ldr {
            rd: Reg::R0,
            base: Reg::SP,
            offset: Operand::Imm(8),
        };
        assert_eq!(i.to_string(), "ldr r0, [sp, #8]");
        let c = Insn::Csel {
            cond: Cond::Eq,
            rd: Reg::R0,
            rt: Reg::R1,
            rf: Reg::R2,
        };
        assert_eq!(c.to_string(), "cseleq r0, r1, r2");
    }
}
