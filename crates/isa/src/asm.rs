//! Textual PG32 assembly: a parser that round-trips with the `Display`
//! implementations of [`crate::Function`] / [`crate::Program`].
//!
//! The toolchain's certified artefacts are CFG-form programs; this module
//! lets users *inspect* them as conventional listings and author small
//! kernels by hand (useful for the energy-characterisation
//! microbenchmarks of the model-fitting flow).

use crate::insn::{AluOp, Cond, Insn, Operand, Reg};
use crate::program::{Block, BlockId, Function, Program, Terminator};
use std::collections::BTreeMap;
use std::fmt;

/// Assembly parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmParseError {
    /// What went wrong.
    pub message: String,
    /// Offending line (1-based).
    pub line: usize,
}

impl fmt::Display for AsmParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, AsmParseError> {
    Err(AsmParseError {
        message: message.into(),
        line,
    })
}

fn parse_reg(token: &str, line: usize) -> Result<Reg, AsmParseError> {
    let t = token.trim().trim_end_matches(',');
    match t {
        "sp" => Ok(Reg::SP),
        "lr" => Ok(Reg::LR),
        _ => {
            let idx: usize =
                t.strip_prefix('r')
                    .and_then(|n| n.parse().ok())
                    .ok_or(AsmParseError {
                        message: format!("bad register `{t}`"),
                        line,
                    })?;
            Reg::from_index(idx).ok_or(AsmParseError {
                message: format!("register index {idx} out of range"),
                line,
            })
        }
    }
}

fn parse_imm(token: &str, line: usize) -> Result<i32, AsmParseError> {
    let t = token.trim().trim_end_matches(',');
    let body = t.strip_prefix('#').ok_or(AsmParseError {
        message: format!("expected immediate, got `{t}`"),
        line,
    })?;
    body.parse()
        .or(err(line, format!("bad immediate `{body}`")))
}

fn parse_operand(token: &str, line: usize) -> Result<Operand, AsmParseError> {
    let t = token.trim().trim_end_matches(',');
    if t.starts_with('#') {
        Ok(Operand::Imm(parse_imm(t, line)?))
    } else {
        Ok(Operand::Reg(parse_reg(t, line)?))
    }
}

fn parse_label(token: &str, line: usize) -> Result<BlockId, AsmParseError> {
    let t = token.trim();
    let n: u32 = t
        .strip_prefix(".L")
        .and_then(|n| n.parse().ok())
        .ok_or(AsmParseError {
            message: format!("bad label `{t}`"),
            line,
        })?;
    Ok(BlockId(n))
}

fn split_args(rest: &str) -> Vec<String> {
    rest.split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

fn parse_mem(args: &str, line: usize) -> Result<(Reg, Reg, Operand), AsmParseError> {
    // Format: `rd, [base, offset]`
    let (rd, rest) = args.split_once(',').ok_or(AsmParseError {
        message: "memory operand expected".into(),
        line,
    })?;
    let rd = parse_reg(rd, line)?;
    let inner = rest
        .trim()
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .ok_or(AsmParseError {
            message: "expected [base, offset]".into(),
            line,
        })?;
    let (base, off) = inner.split_once(',').ok_or(AsmParseError {
        message: "expected base, offset".into(),
        line,
    })?;
    Ok((rd, parse_reg(base, line)?, parse_operand(off, line)?))
}

fn parse_reg_list(args: &str, line: usize) -> Result<Vec<Reg>, AsmParseError> {
    let inner = args
        .trim()
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .ok_or(AsmParseError {
            message: "expected {reg, ...}".into(),
            line,
        })?;
    inner
        .split(',')
        .map(|r| parse_reg(r, line))
        .collect::<Result<Vec<_>, _>>()
}

/// Parse a single instruction line (no label, no terminator).
fn parse_insn(text: &str, line: usize) -> Result<Insn, AsmParseError> {
    let text = text.trim();
    let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (text, ""),
    };
    if let Some(op) = AluOp::ALL.iter().find(|o| o.mnemonic() == mnemonic) {
        let args = split_args(rest);
        if args.len() != 3 {
            return err(line, format!("{mnemonic} needs rd, rn, src"));
        }
        return Ok(Insn::Alu {
            op: *op,
            rd: parse_reg(&args[0], line)?,
            rn: parse_reg(&args[1], line)?,
            src: parse_operand(&args[2], line)?,
        });
    }
    if let Some(cond) = mnemonic
        .strip_prefix("csel")
        .and_then(|c| Cond::ALL.iter().find(|k| k.mnemonic() == c))
    {
        let args = split_args(rest);
        if args.len() != 3 {
            return err(line, "csel needs rd, rt, rf");
        }
        return Ok(Insn::Csel {
            cond: *cond,
            rd: parse_reg(&args[0], line)?,
            rt: parse_reg(&args[1], line)?,
            rf: parse_reg(&args[2], line)?,
        });
    }
    match mnemonic {
        "mov" => {
            let args = split_args(rest);
            if args.len() != 2 {
                return err(line, "mov needs rd, src");
            }
            Ok(Insn::Mov {
                rd: parse_reg(&args[0], line)?,
                src: parse_operand(&args[1], line)?,
            })
        }
        "mov32" => {
            let args = split_args(rest);
            if args.len() != 2 {
                return err(line, "mov32 needs rd, #imm");
            }
            Ok(Insn::MovImm32 {
                rd: parse_reg(&args[0], line)?,
                imm: parse_imm(&args[1], line)?,
            })
        }
        "cmp" => {
            let args = split_args(rest);
            if args.len() != 2 {
                return err(line, "cmp needs rn, src");
            }
            Ok(Insn::Cmp {
                rn: parse_reg(&args[0], line)?,
                src: parse_operand(&args[1], line)?,
            })
        }
        "ldr" => {
            let (rd, base, offset) = parse_mem(rest, line)?;
            Ok(Insn::Ldr { rd, base, offset })
        }
        "str" => {
            let (rs, base, offset) = parse_mem(rest, line)?;
            Ok(Insn::Str { rs, base, offset })
        }
        "push" => Ok(Insn::Push {
            regs: parse_reg_list(rest, line)?,
        }),
        "pop" => Ok(Insn::Pop {
            regs: parse_reg_list(rest, line)?,
        }),
        "bl" => {
            if rest.is_empty() {
                return err(line, "bl needs a function name");
            }
            Ok(Insn::Call {
                func: rest.to_string(),
            })
        }
        "in" => {
            let args = split_args(rest);
            if args.len() != 2 {
                return err(line, "in needs rd, pN");
            }
            let port = args[1]
                .strip_prefix('p')
                .and_then(|p| p.parse().ok())
                .ok_or(AsmParseError {
                    message: format!("bad port `{}`", args[1]),
                    line,
                })?;
            Ok(Insn::In {
                rd: parse_reg(&args[0], line)?,
                port,
            })
        }
        "out" => {
            let args = split_args(rest);
            if args.len() != 2 {
                return err(line, "out needs rs, pN");
            }
            let port = args[1]
                .strip_prefix('p')
                .and_then(|p| p.parse().ok())
                .ok_or(AsmParseError {
                    message: format!("bad port `{}`", args[1]),
                    line,
                })?;
            Ok(Insn::Out {
                rs: parse_reg(&args[0], line)?,
                port,
            })
        }
        "nop" => Ok(Insn::Nop),
        other => err(line, format!("unknown mnemonic `{other}`")),
    }
}

/// Parse one function listing, as produced by [`Function`]'s `Display`.
///
/// # Errors
/// Returns the first malformed line.
pub fn parse_function(text: &str) -> Result<Function, AsmParseError> {
    let mut name: Option<String> = None;
    let mut blocks: Vec<Block> = Vec::new();
    let mut loop_bounds: BTreeMap<BlockId, u32> = BTreeMap::new();
    let mut current: Option<(BlockId, Vec<Insn>, Option<Terminator>)> = None;

    let finish_block = |current: &mut Option<(BlockId, Vec<Insn>, Option<Terminator>)>,
                        blocks: &mut Vec<Block>,
                        line: usize|
     -> Result<(), AsmParseError> {
        if let Some((id, insns, term)) = current.take() {
            let terminator = term.ok_or(AsmParseError {
                message: format!("block {id} lacks a terminator"),
                line,
            })?;
            if id.index() != blocks.len() {
                return err(line, format!("blocks must be listed in order, found {id}"));
            }
            blocks.push(Block { insns, terminator });
        }
        Ok(())
    };

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        // Strip comments.
        let code = raw.split(';').next().unwrap_or("").trim_end();
        let comment = raw.split_once(';').map(|(_, c)| c.trim()).unwrap_or("");
        if code.trim().is_empty() {
            continue;
        }
        let trimmed = code.trim();
        if let Some(label) = trimmed.strip_suffix(':') {
            if let Some(id_txt) = label.strip_prefix(".L") {
                finish_block(&mut current, &mut blocks, line)?;
                let id = BlockId(
                    id_txt
                        .parse()
                        .or(err(line, format!("bad block label `{label}`")))?,
                );
                if let Some(bound) = comment.strip_prefix("loop bound ") {
                    let n: u32 = bound.trim().parse().or(err(line, "bad loop bound"))?;
                    loop_bounds.insert(id, n);
                }
                current = Some((id, Vec::new(), None));
            } else {
                if name.is_some() {
                    return err(line, "multiple function labels in one listing");
                }
                name = Some(label.trim().to_string());
            }
            continue;
        }
        let Some((_, insns, term)) = current.as_mut() else {
            return err(line, "instruction outside any block");
        };
        if term.is_some() {
            return err(line, "instruction after the block terminator");
        }
        // Terminators.
        let (mnemonic, rest) = match trimmed.split_once(char::is_whitespace) {
            Some((m, r)) => (m, r.trim()),
            None => (trimmed, ""),
        };
        match mnemonic {
            "b" => *term = Some(Terminator::Branch(parse_label(rest, line)?)),
            "ret" => *term = Some(Terminator::Return),
            "halt" => *term = Some(Terminator::Halt),
            m if m.starts_with('b') && Cond::ALL.iter().any(|c| c.mnemonic() == &m[1..]) => {
                let cond = *Cond::ALL
                    .iter()
                    .find(|c| c.mnemonic() == &m[1..])
                    .expect("checked above");
                let taken = parse_label(rest, line)?;
                let fallthrough = comment
                    .strip_prefix("else ")
                    .map(|l| parse_label(l, line))
                    .transpose()?
                    .ok_or(AsmParseError {
                        message: "conditional branch needs `; else .Ln`".into(),
                        line,
                    })?;
                *term = Some(Terminator::CondBranch {
                    cond,
                    taken,
                    fallthrough,
                });
            }
            _ => insns.push(parse_insn(trimmed, line)?),
        }
    }
    let last_line = text.lines().count();
    finish_block(&mut current, &mut blocks, last_line)?;
    let name = name.ok_or(AsmParseError {
        message: "missing function label".into(),
        line: 1,
    })?;
    let f = Function {
        name,
        blocks,
        loop_bounds,
        frame_size: 0,
    };
    f.validate().map_err(|m| AsmParseError {
        message: m,
        line: last_line,
    })?;
    Ok(f)
}

/// Render a program as one listing (functions in name order, loop bounds
/// as label comments) that [`parse_program`] accepts.
pub fn render_program(program: &Program) -> String {
    let mut out = String::new();
    for f in program.functions.values() {
        out.push_str(&render_function(f));
        out.push('\n');
    }
    out
}

/// Render one function with loop-bound comments (a superset of the plain
/// `Display` output).
pub fn render_function(f: &Function) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{}:", f.name);
    for (i, b) in f.blocks.iter().enumerate() {
        match f.loop_bounds.get(&BlockId(i as u32)) {
            Some(n) => {
                let _ = writeln!(out, ".L{i}: ; loop bound {n}");
            }
            None => {
                let _ = writeln!(out, ".L{i}:");
            }
        }
        for insn in &b.insns {
            let _ = writeln!(out, "    {insn}");
        }
        match &b.terminator {
            Terminator::Branch(t) => {
                let _ = writeln!(out, "    b {t}");
            }
            Terminator::CondBranch {
                cond,
                taken,
                fallthrough,
            } => {
                let _ = writeln!(out, "    b{cond} {taken}  ; else {fallthrough}");
            }
            Terminator::Return => {
                let _ = writeln!(out, "    ret");
            }
            Terminator::Halt => {
                let _ = writeln!(out, "    halt");
            }
        }
    }
    out
}

/// Parse a multi-function listing (blank-line separated is fine; a new
/// function starts at each non-`.L` label).
///
/// # Errors
/// Returns the first malformed chunk's error.
pub fn parse_program(text: &str) -> Result<Program, AsmParseError> {
    let mut program = Program::new();
    let mut chunk = String::new();
    let mut chunks: Vec<String> = Vec::new();
    for raw in text.lines() {
        let trimmed = raw.trim();
        let is_fn_label =
            trimmed.ends_with(':') && !trimmed.starts_with(".L") && !trimmed.is_empty();
        if is_fn_label && !chunk.trim().is_empty() {
            chunks.push(std::mem::take(&mut chunk));
        }
        chunk.push_str(raw);
        chunk.push('\n');
    }
    if !chunk.trim().is_empty() {
        chunks.push(chunk);
    }
    for c in chunks {
        program.add_function(parse_function(&c)?);
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LISTING: &str = "
sum:
.L0:
    mov r1, #0
    mov r2, #0
    b .L1
.L1: ; loop bound 8
    cmp r2, r0
    blt .L2  ; else .L3
.L2:
    add r1, r1, r2
    add r2, r2, #1
    b .L1
.L3:
    mov r0, r1
    ret
";

    #[test]
    fn parses_a_loop_function_with_bounds() {
        let f = parse_function(LISTING).expect("parses");
        assert_eq!(f.name, "sum");
        assert_eq!(f.blocks.len(), 4);
        assert_eq!(f.loop_bounds.get(&BlockId(1)), Some(&8));
        assert!(matches!(
            f.blocks[1].terminator,
            Terminator::CondBranch { cond: Cond::Lt, .. }
        ));
    }

    #[test]
    fn round_trips_through_render() {
        let f = parse_function(LISTING).expect("parses");
        let rendered = render_function(&f);
        let again = parse_function(&rendered).expect("re-parses");
        assert_eq!(f, again);
    }

    #[test]
    fn parses_every_instruction_form() {
        let listing = "
kitchen_sink:
.L0:
    add r0, r1, r2
    lsr r7, r7, #-5
    mov r3, sp
    mov r3, #1234
    mov32 r4, #-123456789
    cmp r1, #0
    cmp r1, r9
    cselle r0, r1, r2
    ldr r0, [sp, #-8]
    str r5, [r6, #16]
    ldr r0, [r1, r2]
    push {r4, r5, lr}
    pop {r4, r5, lr}
    bl xtea_encrypt
    in r0, p3
    out r1, p250
    nop
    halt
";
        let f = parse_function(listing).expect("parses");
        assert_eq!(f.blocks[0].insns.len(), 17);
        let again = parse_function(&render_function(&f)).expect("re-parses");
        assert_eq!(f, again);
    }

    #[test]
    fn rejects_malformed_listings() {
        assert!(parse_function("f:\n.L0:\n    badop r0\n    ret\n").is_err());
        assert!(
            parse_function("f:\n.L0:\n    ret\n    nop\n").is_err(),
            "code after terminator"
        );
        assert!(
            parse_function("f:\n.L0:\n    nop\n").is_err(),
            "missing terminator"
        );
        assert!(
            parse_function(".L0:\n    ret\n").is_err(),
            "missing function label"
        );
        assert!(
            parse_function("f:\n.L0:\n    b .L9\n").is_err(),
            "dangling branch target"
        );
        assert!(
            parse_function("f:\n.L0:\n    beq .L0\n").is_err(),
            "conditional without else comment"
        );
    }

    #[test]
    fn parses_multi_function_programs() {
        let text = "
leaf:
.L0:
    add r0, r0, #1
    ret

main:
.L0:
    bl leaf
    ret
";
        let p = parse_program(text).expect("parses");
        assert!(p.function("leaf").is_some());
        assert!(p.function("main").is_some());
        p.validate().expect("valid");
        let again = parse_program(&render_program(&p)).expect("re-parses");
        assert_eq!(p, again);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_reg() -> impl Strategy<Value = Reg> {
        (0usize..16).prop_map(|i| Reg::from_index(i).expect("in range"))
    }

    fn arb_operand() -> impl Strategy<Value = Operand> {
        prop_oneof![
            arb_reg().prop_map(Operand::Reg),
            (-32768i32..32768).prop_map(Operand::Imm),
        ]
    }

    fn arb_insn() -> impl Strategy<Value = Insn> {
        prop_oneof![
            (
                0usize..AluOp::ALL.len(),
                arb_reg(),
                arb_reg(),
                arb_operand()
            )
                .prop_map(|(o, rd, rn, src)| Insn::Alu {
                    op: AluOp::ALL[o],
                    rd,
                    rn,
                    src
                }),
            (arb_reg(), arb_operand()).prop_map(|(rd, src)| Insn::Mov { rd, src }),
            (arb_reg(), any::<i32>()).prop_map(|(rd, imm)| Insn::MovImm32 { rd, imm }),
            (arb_reg(), arb_operand()).prop_map(|(rn, src)| Insn::Cmp { rn, src }),
            (0usize..Cond::ALL.len(), arb_reg(), arb_reg(), arb_reg()).prop_map(
                |(c, rd, rt, rf)| Insn::Csel {
                    cond: Cond::ALL[c],
                    rd,
                    rt,
                    rf
                }
            ),
            (arb_reg(), arb_reg(), arb_operand()).prop_map(|(rd, base, offset)| Insn::Ldr {
                rd,
                base,
                offset
            }),
            (arb_reg(), arb_reg(), arb_operand()).prop_map(|(rs, base, offset)| Insn::Str {
                rs,
                base,
                offset
            }),
            proptest::collection::btree_set(0usize..16, 1..6).prop_map(|s| Insn::Push {
                regs: s
                    .into_iter()
                    .map(|i| Reg::from_index(i).expect("idx"))
                    .collect(),
            }),
            "[a-z_][a-z0-9_]{0,20}".prop_map(|func| Insn::Call { func }),
            (arb_reg(), any::<u8>()).prop_map(|(rd, port)| Insn::In { rd, port }),
            (arb_reg(), any::<u8>()).prop_map(|(rs, port)| Insn::Out { rs, port }),
            Just(Insn::Nop),
        ]
    }

    fn arb_function() -> impl Strategy<Value = Function> {
        (1usize..5).prop_flat_map(|n_blocks| {
            let blocks = proptest::collection::vec(
                (
                    proptest::collection::vec(arb_insn(), 0..6),
                    prop_oneof![
                        (0..n_blocks as u32).prop_map(|t| Terminator::Branch(BlockId(t))),
                        (
                            0usize..Cond::ALL.len(),
                            0..n_blocks as u32,
                            0..n_blocks as u32
                        )
                            .prop_map(|(c, t, f)| Terminator::CondBranch {
                                cond: Cond::ALL[c],
                                taken: BlockId(t),
                                fallthrough: BlockId(f),
                            }),
                        Just(Terminator::Return),
                        Just(Terminator::Halt),
                    ],
                ),
                n_blocks..=n_blocks,
            );
            (
                blocks,
                proptest::collection::btree_map(0..n_blocks as u32, 1u32..100, 0..3),
            )
                .prop_map(|(blocks, bounds)| Function {
                    name: "prop_fn".into(),
                    blocks: blocks
                        .into_iter()
                        .map(|(insns, terminator)| Block { insns, terminator })
                        .collect(),
                    loop_bounds: bounds.into_iter().map(|(k, v)| (BlockId(k), v)).collect(),
                    frame_size: 0,
                })
        })
    }

    proptest! {
        #[test]
        fn render_parse_round_trip(f in arb_function()) {
            let rendered = render_function(&f);
            let parsed = parse_function(&rendered).expect("rendered output parses");
            // frame_size is not part of the listing; compare the rest.
            prop_assert_eq!(parsed.name, f.name.clone());
            prop_assert_eq!(parsed.blocks, f.blocks.clone());
            prop_assert_eq!(parsed.loop_bounds, f.loop_bounds.clone());
        }

        /// JSON is how the persistent store keeps compiled functions:
        /// every instruction form, a name needing escapes and any frame
        /// size must read back equal.
        #[test]
        fn json_round_trip(
            f in arb_function(),
            name in "\\PC{0,12}",
            frame_size in any::<u32>(),
            pops in proptest::collection::vec(arb_reg(), 0..4),
        ) {
            let mut f = f;
            f.name = format!("{name}\"\\\n\u{1}");
            f.frame_size = frame_size;
            f.blocks[0].insns.push(Insn::Pop { regs: pops });
            let json = serde_json::to_string(&f).expect("function serializes");
            prop_assert_eq!(serde_json::from_str::<Function>(&json), Ok(f));
        }

        #[test]
        fn parser_never_panics(text in "\\PC{0,400}") {
            let _ = parse_function(&text);
            let _ = parse_program(&text);
        }
    }
}
