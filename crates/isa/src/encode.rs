//! Binary encoding of PG32 instructions.
//!
//! Each instruction encodes to a variable number of 16-bit halfwords
//! (Thumb-style), giving programs a realistic code-size/footprint metric
//! that the compiler's optimisation passes trade against time and energy
//! (aggressive unrolling and inlining grow the binary). The decoder is a
//! total inverse of the encoder over the encodable subset, which the
//! property tests exercise.

use crate::insn::{AluOp, Cond, Insn, Operand, Reg};
use std::fmt;

/// Error produced by [`decode_insn`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeInsnError {
    /// The stream ended in the middle of an instruction.
    Truncated,
    /// An opcode nibble that no instruction uses.
    BadOpcode(u16),
    /// A register field outside 0–15 (impossible for 4-bit fields, kept for
    /// forward compatibility) or a malformed sub-field.
    BadField(&'static str),
}

impl fmt::Display for DecodeInsnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeInsnError::Truncated => write!(f, "instruction stream truncated"),
            DecodeInsnError::BadOpcode(w) => write!(f, "unknown opcode word {w:#06x}"),
            DecodeInsnError::BadField(what) => write!(f, "malformed {what} field"),
        }
    }
}

impl std::error::Error for DecodeInsnError {}

// Major opcodes (top 4 bits of the first halfword).
const OP_ALU_REG: u16 = 0x0;
const OP_ALU_IMM: u16 = 0x1;
const OP_MOV: u16 = 0x2;
const OP_MOV32: u16 = 0x3;
const OP_CMP: u16 = 0x4;
const OP_CSEL: u16 = 0x5;
const OP_LDR: u16 = 0x6;
const OP_STR: u16 = 0x7;
const OP_PUSH: u16 = 0x8;
const OP_POP: u16 = 0x9;
const OP_CALL: u16 = 0xA;
const OP_IO: u16 = 0xB;
const OP_NOP: u16 = 0xC;

fn alu_code(op: AluOp) -> u16 {
    AluOp::ALL
        .iter()
        .position(|o| *o == op)
        .expect("alu op in table") as u16
}

fn alu_from_code(c: u16) -> Option<AluOp> {
    AluOp::ALL.get(c as usize).copied()
}

fn cond_code(c: Cond) -> u16 {
    Cond::ALL
        .iter()
        .position(|o| *o == c)
        .expect("cond in table") as u16
}

fn cond_from_code(c: u16) -> Option<Cond> {
    Cond::ALL.get(c as usize).copied()
}

fn reg4(r: Reg) -> u16 {
    r.index() as u16
}

fn reg_from(bits: u16) -> Reg {
    Reg::from_index((bits & 0xF) as usize).expect("4-bit register field")
}

/// Encode one instruction, appending 16-bit halfwords to `out`.
///
/// Call-target names are encoded as a length-prefixed UTF-16-agnostic byte
/// pair packing (one halfword per two bytes), so encoding is lossless.
///
/// # Panics
/// Panics if an `Imm` operand does not fit in 16 signed bits (the code
/// generator materialises larger constants with [`Insn::MovImm32`]) or a
/// call-target name is longer than 255 bytes.
pub fn encode_insn(insn: &Insn, out: &mut Vec<u16>) {
    let word = |major: u16, a: u16, b: u16, c: u16| -> u16 {
        (major << 12) | ((a & 0xF) << 8) | ((b & 0xF) << 4) | (c & 0xF)
    };
    match insn {
        Insn::Alu { op, rd, rn, src } => match src {
            Operand::Reg(rm) => {
                out.push(word(OP_ALU_REG, reg4(*rd), reg4(*rn), reg4(*rm)));
                out.push(alu_code(*op));
            }
            Operand::Imm(v) => {
                assert!(
                    i32::from(*v as i16) == *v,
                    "ALU immediate {v} out of 16-bit range"
                );
                out.push(word(OP_ALU_IMM, reg4(*rd), reg4(*rn), alu_code(*op)));
                out.push(*v as i16 as u16);
            }
        },
        Insn::Mov { rd, src } => match src {
            Operand::Reg(rm) => out.push(word(OP_MOV, reg4(*rd), reg4(*rm), 0)),
            Operand::Imm(v) => {
                assert!(
                    i32::from(*v as i16) == *v,
                    "MOV immediate {v} out of 16-bit range"
                );
                out.push(word(OP_MOV, reg4(*rd), 0, 1));
                out.push(*v as i16 as u16);
            }
        },
        Insn::MovImm32 { rd, imm } => {
            out.push(word(OP_MOV32, reg4(*rd), 0, 0));
            out.push((*imm & 0xFFFF) as u16);
            out.push(((*imm >> 16) & 0xFFFF) as u16);
        }
        Insn::Cmp { rn, src } => match src {
            Operand::Reg(rm) => out.push(word(OP_CMP, reg4(*rn), reg4(*rm), 0)),
            Operand::Imm(v) => {
                assert!(
                    i32::from(*v as i16) == *v,
                    "CMP immediate {v} out of 16-bit range"
                );
                out.push(word(OP_CMP, reg4(*rn), 0, 1));
                out.push(*v as i16 as u16);
            }
        },
        Insn::Csel { cond, rd, rt, rf } => {
            out.push(word(OP_CSEL, reg4(*rd), reg4(*rt), reg4(*rf)));
            out.push(cond_code(*cond));
        }
        Insn::Ldr { rd, base, offset }
        | Insn::Str {
            rs: rd,
            base,
            offset,
        } => {
            // Fixed two-halfword form: mode nibble selects the meaning of
            // the second halfword (0 = offset register index, 1 = signed
            // immediate).
            let major = if matches!(insn, Insn::Ldr { .. }) {
                OP_LDR
            } else {
                OP_STR
            };
            match offset {
                Operand::Reg(ro) => {
                    out.push(word(major, reg4(*rd), reg4(*base), 0));
                    out.push(reg4(*ro));
                }
                Operand::Imm(v) => {
                    assert!(
                        i32::from(*v as i16) == *v,
                        "memory offset {v} out of 16-bit range"
                    );
                    out.push(word(major, reg4(*rd), reg4(*base), 1));
                    out.push(*v as i16 as u16);
                }
            }
        }
        Insn::Push { regs } | Insn::Pop { regs } => {
            let major = if matches!(insn, Insn::Push { .. }) {
                OP_PUSH
            } else {
                OP_POP
            };
            out.push(word(major, 0, 0, 0));
            let mut mask: u16 = 0;
            for r in regs {
                mask |= 1 << r.index();
            }
            out.push(mask);
        }
        Insn::Call { func } => {
            let bytes = func.as_bytes();
            assert!(bytes.len() <= 255, "call target name too long");
            out.push(word(OP_CALL, 0, 0, 0) | (bytes.len() as u16 & 0xFF));
            let mut i = 0;
            while i < bytes.len() {
                let lo = bytes[i] as u16;
                let hi = if i + 1 < bytes.len() {
                    bytes[i + 1] as u16
                } else {
                    0
                };
                out.push(lo | (hi << 8));
                i += 2;
            }
        }
        Insn::In { rd, port } => {
            out.push(word(OP_IO, reg4(*rd), 0, 0));
            out.push(*port as u16);
        }
        Insn::Out { rs, port } => {
            out.push(word(OP_IO, reg4(*rs), 1, 0));
            out.push(*port as u16);
        }
        Insn::Nop => out.push(word(OP_NOP, 0, 0, 0)),
    }
}

/// Decode one instruction starting at `words[pos]`.
///
/// Returns the instruction and the position just past it.
///
/// # Errors
/// Returns [`DecodeInsnError`] if the stream is truncated or contains an
/// opcode/field the encoder never produces.
pub fn decode_insn(words: &[u16], pos: usize) -> Result<(Insn, usize), DecodeInsnError> {
    let w = *words.get(pos).ok_or(DecodeInsnError::Truncated)?;
    let major = w >> 12;
    let a = (w >> 8) & 0xF;
    let b = (w >> 4) & 0xF;
    let c = w & 0xF;
    let need = |n: usize| -> Result<u16, DecodeInsnError> {
        words
            .get(pos + n)
            .copied()
            .ok_or(DecodeInsnError::Truncated)
    };
    match major {
        OP_ALU_REG => {
            let opw = need(1)?;
            let op = alu_from_code(opw).ok_or(DecodeInsnError::BadField("alu op"))?;
            Ok((
                Insn::Alu {
                    op,
                    rd: reg_from(a),
                    rn: reg_from(b),
                    src: Operand::Reg(reg_from(c)),
                },
                pos + 2,
            ))
        }
        OP_ALU_IMM => {
            let op = alu_from_code(c).ok_or(DecodeInsnError::BadField("alu op"))?;
            let imm = need(1)? as i16 as i32;
            Ok((
                Insn::Alu {
                    op,
                    rd: reg_from(a),
                    rn: reg_from(b),
                    src: Operand::Imm(imm),
                },
                pos + 2,
            ))
        }
        OP_MOV => {
            if c == 1 {
                let imm = need(1)? as i16 as i32;
                Ok((
                    Insn::Mov {
                        rd: reg_from(a),
                        src: Operand::Imm(imm),
                    },
                    pos + 2,
                ))
            } else {
                Ok((
                    Insn::Mov {
                        rd: reg_from(a),
                        src: Operand::Reg(reg_from(b)),
                    },
                    pos + 1,
                ))
            }
        }
        OP_MOV32 => {
            let lo = need(1)? as u32;
            let hi = need(2)? as u32;
            Ok((
                Insn::MovImm32 {
                    rd: reg_from(a),
                    imm: (lo | (hi << 16)) as i32,
                },
                pos + 3,
            ))
        }
        OP_CMP => {
            if c == 1 {
                let imm = need(1)? as i16 as i32;
                Ok((
                    Insn::Cmp {
                        rn: reg_from(a),
                        src: Operand::Imm(imm),
                    },
                    pos + 2,
                ))
            } else {
                Ok((
                    Insn::Cmp {
                        rn: reg_from(a),
                        src: Operand::Reg(reg_from(b)),
                    },
                    pos + 1,
                ))
            }
        }
        OP_CSEL => {
            let cw = need(1)?;
            let cond = cond_from_code(cw).ok_or(DecodeInsnError::BadField("condition"))?;
            Ok((
                Insn::Csel {
                    cond,
                    rd: reg_from(a),
                    rt: reg_from(b),
                    rf: reg_from(c),
                },
                pos + 2,
            ))
        }
        OP_LDR | OP_STR => {
            let second = need(1)?;
            let offset = match c {
                0 => {
                    if second > 15 {
                        return Err(DecodeInsnError::BadField("offset register"));
                    }
                    Operand::Reg(reg_from(second))
                }
                1 => Operand::Imm(second as i16 as i32),
                _ => return Err(DecodeInsnError::BadField("memory addressing mode")),
            };
            if major == OP_LDR {
                Ok((
                    Insn::Ldr {
                        rd: reg_from(a),
                        base: reg_from(b),
                        offset,
                    },
                    pos + 2,
                ))
            } else {
                Ok((
                    Insn::Str {
                        rs: reg_from(a),
                        base: reg_from(b),
                        offset,
                    },
                    pos + 2,
                ))
            }
        }
        OP_PUSH | OP_POP => {
            let mask = need(1)?;
            let regs: Vec<Reg> = Reg::ALL
                .iter()
                .copied()
                .filter(|r| mask & (1 << r.index()) != 0)
                .collect();
            if major == OP_PUSH {
                Ok((Insn::Push { regs }, pos + 2))
            } else {
                Ok((Insn::Pop { regs }, pos + 2))
            }
        }
        OP_CALL => {
            let len = (w & 0xFF) as usize;
            let halves = len.div_ceil(2);
            let mut bytes = Vec::with_capacity(len);
            for i in 0..halves {
                let hw = need(1 + i)?;
                bytes.push((hw & 0xFF) as u8);
                if bytes.len() < len {
                    bytes.push((hw >> 8) as u8);
                }
            }
            let func =
                String::from_utf8(bytes).map_err(|_| DecodeInsnError::BadField("call target"))?;
            Ok((Insn::Call { func }, pos + 1 + halves))
        }
        OP_IO => {
            let port = need(1)?;
            if port > 255 {
                return Err(DecodeInsnError::BadField("port"));
            }
            if b == 1 {
                Ok((
                    Insn::Out {
                        rs: reg_from(a),
                        port: port as u8,
                    },
                    pos + 2,
                ))
            } else {
                Ok((
                    Insn::In {
                        rd: reg_from(a),
                        port: port as u8,
                    },
                    pos + 2,
                ))
            }
        }
        OP_NOP => Ok((Insn::Nop, pos + 1)),
        other => Err(DecodeInsnError::BadOpcode(other << 12)),
    }
}

/// Encode a whole instruction sequence.
pub fn encode_sequence(insns: &[Insn]) -> Vec<u16> {
    let mut out = Vec::new();
    for i in insns {
        encode_insn(i, &mut out);
    }
    out
}

/// Decode a whole instruction stream.
///
/// # Errors
/// Returns the first decode failure.
pub fn decode_sequence(words: &[u16]) -> Result<Vec<Insn>, DecodeInsnError> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < words.len() {
        let (i, next) = decode_insn(words, pos)?;
        out.push(i);
        pos = next;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Insn> {
        vec![
            Insn::Alu {
                op: AluOp::Add,
                rd: Reg::R0,
                rn: Reg::R1,
                src: Operand::Reg(Reg::R2),
            },
            Insn::Alu {
                op: AluOp::Lsr,
                rd: Reg::R7,
                rn: Reg::R7,
                src: Operand::Imm(-5),
            },
            Insn::Mov {
                rd: Reg::R3,
                src: Operand::Reg(Reg::SP),
            },
            Insn::Mov {
                rd: Reg::R3,
                src: Operand::Imm(1234),
            },
            Insn::MovImm32 {
                rd: Reg::R4,
                imm: -123_456_789,
            },
            Insn::Cmp {
                rn: Reg::R1,
                src: Operand::Imm(0),
            },
            Insn::Cmp {
                rn: Reg::R1,
                src: Operand::Reg(Reg::R9),
            },
            Insn::Csel {
                cond: Cond::Le,
                rd: Reg::R0,
                rt: Reg::R1,
                rf: Reg::R2,
            },
            Insn::Ldr {
                rd: Reg::R0,
                base: Reg::SP,
                offset: Operand::Imm(-8),
            },
            Insn::Ldr {
                rd: Reg::R0,
                base: Reg::R1,
                offset: Operand::Reg(Reg::R2),
            },
            Insn::Str {
                rs: Reg::R5,
                base: Reg::R6,
                offset: Operand::Imm(16),
            },
            Insn::Push {
                regs: vec![Reg::R4, Reg::R5, Reg::LR],
            },
            Insn::Pop {
                regs: vec![Reg::R4, Reg::R5, Reg::LR],
            },
            Insn::Call {
                func: "xtea_encrypt".into(),
            },
            Insn::Call { func: "f".into() },
            Insn::In {
                rd: Reg::R0,
                port: 3,
            },
            Insn::Out {
                rs: Reg::R1,
                port: 250,
            },
            Insn::Nop,
        ]
    }

    #[test]
    fn round_trip_every_sample() {
        for insn in samples() {
            let mut words = Vec::new();
            encode_insn(&insn, &mut words);
            let (decoded, used) = decode_insn(&words, 0).expect("decode");
            assert_eq!(decoded, insn);
            assert_eq!(used, words.len(), "no trailing words for {insn}");
        }
    }

    #[test]
    fn round_trip_sequence() {
        let insns = samples();
        let words = encode_sequence(&insns);
        assert_eq!(decode_sequence(&words).expect("decode"), insns);
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let mut words = Vec::new();
        encode_insn(
            &Insn::MovImm32 {
                rd: Reg::R0,
                imm: 7,
            },
            &mut words,
        );
        words.pop();
        assert_eq!(decode_insn(&words, 0), Err(DecodeInsnError::Truncated));
    }

    #[test]
    fn bad_opcode_is_an_error() {
        assert!(matches!(
            decode_insn(&[0xF000], 0),
            Err(DecodeInsnError::BadOpcode(_))
        ));
    }

    #[test]
    fn odd_length_call_names_round_trip() {
        for name in ["a", "ab", "abc", "transmit_frame_9"] {
            let insn = Insn::Call { func: name.into() };
            let mut words = Vec::new();
            encode_insn(&insn, &mut words);
            let (decoded, _) = decode_insn(&words, 0).expect("decode");
            assert_eq!(decoded, insn);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_reg() -> impl Strategy<Value = Reg> {
        (0usize..16).prop_map(|i| Reg::from_index(i).expect("index < 16"))
    }

    fn arb_operand() -> impl Strategy<Value = Operand> {
        prop_oneof![
            arb_reg().prop_map(Operand::Reg),
            (-32768i32..32768).prop_map(Operand::Imm),
        ]
    }

    fn arb_insn() -> impl Strategy<Value = Insn> {
        let alu = (
            0usize..AluOp::ALL.len(),
            arb_reg(),
            arb_reg(),
            arb_operand(),
        )
            .prop_map(|(o, rd, rn, src)| Insn::Alu {
                op: AluOp::ALL[o],
                rd,
                rn,
                src,
            });
        let mov = (arb_reg(), arb_operand()).prop_map(|(rd, src)| Insn::Mov { rd, src });
        let mov32 = (arb_reg(), any::<i32>()).prop_map(|(rd, imm)| Insn::MovImm32 { rd, imm });
        let cmp = (arb_reg(), arb_operand()).prop_map(|(rn, src)| Insn::Cmp { rn, src });
        let csel = (0usize..Cond::ALL.len(), arb_reg(), arb_reg(), arb_reg()).prop_map(
            |(c, rd, rt, rf)| Insn::Csel {
                cond: Cond::ALL[c],
                rd,
                rt,
                rf,
            },
        );
        let ldr = (arb_reg(), arb_reg(), arb_operand()).prop_map(|(rd, base, offset)| Insn::Ldr {
            rd,
            base,
            offset,
        });
        let str_ = (arb_reg(), arb_reg(), arb_operand()).prop_map(|(rs, base, offset)| Insn::Str {
            rs,
            base,
            offset,
        });
        let push = proptest::collection::btree_set(0usize..16, 0..8).prop_map(|s| Insn::Push {
            regs: s
                .into_iter()
                .map(|i| Reg::from_index(i).expect("idx"))
                .collect(),
        });
        let call = "[a-z_][a-z0-9_]{0,30}".prop_map(|func| Insn::Call { func });
        let io = (arb_reg(), any::<u8>(), any::<bool>()).prop_map(|(r, port, dir)| {
            if dir {
                Insn::In { rd: r, port }
            } else {
                Insn::Out { rs: r, port }
            }
        });
        prop_oneof![
            alu,
            mov,
            mov32,
            cmp,
            csel,
            ldr,
            str_,
            push,
            call,
            io,
            Just(Insn::Nop)
        ]
    }

    proptest! {
        #[test]
        fn encode_decode_round_trip(insns in proptest::collection::vec(arb_insn(), 0..40)) {
            let words = encode_sequence(&insns);
            let decoded = decode_sequence(&words).expect("decode what we encoded");
            prop_assert_eq!(decoded, insns);
        }

        #[test]
        fn decoder_never_panics(words in proptest::collection::vec(any::<u16>(), 0..64)) {
            let _ = decode_sequence(&words);
        }
    }
}
