//! Random PG32 control-flow graphs for the analysis-engine suite.
//!
//! Each program holds a function `f` with up to eleven blocks whose
//! terminators branch anywhere (so loops may be nested, shared,
//! unbounded or irreducible, and blocks may be unreachable), and a
//! straight-line `leaf` that `f` may call. Every block ends its body
//! with a `cmp reg, #imm`, so conditional branches carry the predicates
//! the infeasible-path facts read, and some blocks write the tested
//! registers.

use proptest::prelude::*;
use std::collections::BTreeMap;
use teamplay_isa::{
    AluOp, Block, BlockId, Cond, Function, Insn, Operand, Program, Reg, Terminator,
};

/// One block's shape: terminator kind, two targets, the compared
/// immediate, and a byte choosing the tested register and the body.
type BlockShape = (u8, usize, usize, i32, u8);

/// A loop bound per block (`None` leaves a header unbounded).
fn arb_bounds() -> impl Strategy<Value = Vec<Option<u32>>> {
    let bound = prop_oneof![
        Just(None),
        (0u32..5).prop_map(Some),
        (0u32..5).prop_map(Some),
        (0u32..5).prop_map(Some),
    ];
    proptest::collection::vec(bound, 12)
}

/// Random programs: `f`'s block shapes and loop bounds.
pub fn arb_program() -> impl Strategy<Value = Program> {
    (
        proptest::collection::vec((0u8..7, 0usize..12, 0usize..12, -3i32..8, 0u8..32), 1..12),
        arb_bounds(),
    )
        .prop_map(|(shape, bounds)| program(&shape, &bounds))
}

fn program(shape: &[BlockShape], bounds: &[Option<u32>]) -> Program {
    let n = shape.len();
    let regs = [Reg::R0, Reg::R1, Reg::R2, Reg::R3];
    let blocks = shape
        .iter()
        .map(|&(kind, a, b, imm, choice)| {
            let tested = regs[usize::from(choice % 4)];
            let mut insns = Vec::new();
            if choice & 4 != 0 {
                insns.push(Insn::Alu {
                    op: AluOp::Add,
                    rd: regs[usize::from(choice + 1) % 4],
                    rn: Reg::R0,
                    src: Operand::Imm(1),
                });
            }
            if choice & 8 != 0 {
                insns.push(Insn::Alu {
                    op: AluOp::Mul,
                    rd: Reg::R5,
                    rn: Reg::R5,
                    src: Operand::Reg(Reg::R6),
                });
            }
            if choice & 16 != 0 {
                insns.push(Insn::Call {
                    func: "leaf".into(),
                });
            }
            insns.push(Insn::Cmp {
                rn: tested,
                src: Operand::Imm(imm),
            });
            let target = |t: usize| BlockId((t % n) as u32);
            let terminator = match kind {
                0 => Terminator::Return,
                1 => Terminator::Branch(target(a)),
                2 => Terminator::Halt,
                _ => Terminator::CondBranch {
                    cond: Cond::ALL[(usize::from(kind) + b) % 6],
                    taken: target(a),
                    fallthrough: target(b),
                },
            };
            Block { insns, terminator }
        })
        .collect();
    let loop_bounds: BTreeMap<BlockId, u32> = bounds
        .iter()
        .take(n)
        .enumerate()
        .filter_map(|(i, b)| b.map(|b| (BlockId(i as u32), b)))
        .collect();
    let mut p = Program::new();
    p.add_function(Function {
        name: "f".into(),
        blocks,
        loop_bounds,
        frame_size: 0,
    });
    let mut leaf = Function::stub("leaf");
    leaf.blocks[0].insns = vec![
        Insn::Alu {
            op: AluOp::Div,
            rd: Reg::R0,
            rn: Reg::R0,
            src: Operand::Reg(Reg::R1),
        };
        3
    ];
    p.add_function(leaf);
    p
}
