//! PG32 code generation.
//!
//! The base strategy is deliberately simple and certifiable: every IR temp
//! owns a storage home; each IR operation loads its operands, computes, and
//! stores the result. Two refinements sit on top:
//!
//! * **liveness-driven copy coalescing** — copy-related temps whose live
//!   ranges never interfere share one home (`coalesce_classes` over
//!   [`crate::dataflow::Liveness`]), so the copy itself emits nothing
//!   and the frame shrinks by the merged slots;
//! * the **register-pinning allocator** — the N most-used storage
//!   classes live permanently in callee-saved registers (r4–r7),
//!   eliminating their loads/stores entirely — the compiler's main
//!   time *and* energy lever, exposed to the multi-objective search.
//!
//! IR blocks map 1:1 to PG32 blocks, so loop-bound flow facts transfer
//! directly from the front-end to the binary-level analyses — the
//! "cross-layer management of ETS properties" of the paper's methodology.

use crate::dataflow::{for_each_read, for_each_term_read, for_each_write};
use crate::passes::PipelineError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use teamplay_isa::{
    AluOp, Block, BlockId, Cond, DataLayout, Function, Insn, Operand as IsaOperand, Program, Reg,
    Terminator,
};
use teamplay_minic::ast::{BinOp, UnOp};
use teamplay_minic::ir::{CallArg, IrFunction, IrModule, IrOp, IrTerm, MemBase, Operand, Temp};

/// Code-generation failures.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CodegenError {
    /// More than 6 scalar/array parameters.
    TooManyParams(String),
    /// The frame (temps + local arrays) exceeds the 16-bit offset range.
    FrameTooLarge(String),
    /// IR validation failed.
    InvalidIr(String),
    /// The configured pipeline names a pass outside the registry.
    InvalidPipeline(String),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::TooManyParams(name) => {
                write!(f, "function `{name}` has more than 6 parameters")
            }
            CodegenError::FrameTooLarge(name) => {
                write!(
                    f,
                    "function `{name}`: stack frame exceeds encodable offsets"
                )
            }
            CodegenError::InvalidIr(msg) => write!(f, "invalid IR: {msg}"),
            CodegenError::InvalidPipeline(msg) => write!(f, "invalid pipeline: {msg}"),
        }
    }
}

impl std::error::Error for CodegenError {}

impl From<PipelineError> for CodegenError {
    fn from(e: PipelineError) -> Self {
        CodegenError::InvalidPipeline(e.to_string())
    }
}

/// Code-generation options. The default (no pinning, plain multiplies)
/// matches the unoptimised reference point.
///
/// `mul_shift_add` here is the register-resident counterpart of the IR
/// `mul_shift_add` pass in [`crate::passes::REGISTRY`]: the presets use
/// this codegen variant because it decomposes multiplications without
/// inflating IR temp traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CodegenOpts {
    /// Register-pinning level (0, 2 or 4).
    pub pinned_regs: usize,
    /// Decompose multiplications by small constants into register-held
    /// shift/add chains: more cycles, less energy than the power-hungry
    /// multiplier — the instruction-level ETS trade-off knob.
    pub mul_shift_add: bool,
}

impl From<usize> for CodegenOpts {
    fn from(pinned_regs: usize) -> Self {
        CodegenOpts {
            pinned_regs,
            mul_shift_add: false,
        }
    }
}

/// Registers available for pinning (callee-saved by our ABI).
const PIN_POOL: [Reg; 4] = [Reg::R4, Reg::R5, Reg::R6, Reg::R7];

/// Where a temp lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Home {
    Slot(u32), // byte offset from SP
    Pinned(Reg),
}

struct Ctx<'a> {
    homes: Vec<Home>,
    array_offsets: Vec<u32>, // byte offset from SP per local array
    pinned: Vec<Reg>,
    layout: &'a DataLayout,
    mul_shift_add: bool,
}

fn imm16(v: i32) -> bool {
    i32::from(v as i16) == v
}

/// Emit `dst = value` materialisation.
fn emit_const(insns: &mut Vec<Insn>, dst: Reg, v: i32) {
    if imm16(v) {
        insns.push(Insn::Mov {
            rd: dst,
            src: IsaOperand::Imm(v),
        });
    } else {
        insns.push(Insn::MovImm32 { rd: dst, imm: v });
    }
}

impl Ctx<'_> {
    /// Load an IR operand into `dst`. `disp` is the extra byte offset to
    /// apply to SP-relative slots (non-zero only while a call's staging
    /// area is reserved below the frame).
    fn load_operand_disp(&self, insns: &mut Vec<Insn>, op: Operand, dst: Reg, disp: i32) {
        match op {
            Operand::Const(v) => emit_const(insns, dst, v),
            Operand::Temp(t) => match self.homes[t.0 as usize] {
                Home::Pinned(r) => {
                    if r != dst {
                        insns.push(Insn::Mov {
                            rd: dst,
                            src: IsaOperand::Reg(r),
                        });
                    }
                }
                Home::Slot(off) => insns.push(Insn::Ldr {
                    rd: dst,
                    base: Reg::SP,
                    offset: IsaOperand::Imm(off as i32 + disp),
                }),
            },
        }
    }

    /// Load an IR operand into `dst`.
    fn load_operand(&self, insns: &mut Vec<Insn>, op: Operand, dst: Reg) {
        self.load_operand_disp(insns, op, dst, 0);
    }

    /// Store `src` into a temp's home.
    fn store_temp(&self, insns: &mut Vec<Insn>, t: Temp, src: Reg) {
        match self.homes[t.0 as usize] {
            Home::Pinned(r) => {
                if r != src {
                    insns.push(Insn::Mov {
                        rd: r,
                        src: IsaOperand::Reg(src),
                    });
                }
            }
            Home::Slot(off) => insns.push(Insn::Str {
                rs: src,
                base: Reg::SP,
                offset: IsaOperand::Imm(off as i32),
            }),
        }
    }

    /// Compute the base byte address of a memory region into `dst`,
    /// applying `disp` to SP-relative addressing (see
    /// [`Ctx::load_operand_disp`]).
    fn emit_base_address_disp(&self, insns: &mut Vec<Insn>, base: &MemBase, dst: Reg, disp: i32) {
        match base {
            MemBase::Global(name) => {
                let addr = self.layout.address(name).expect("layout covers globals") as i32;
                emit_const(insns, dst, addr);
            }
            MemBase::Local(id) => {
                let off = self.array_offsets[*id as usize] as i32 + disp;
                insns.push(Insn::Mov {
                    rd: dst,
                    src: IsaOperand::Reg(Reg::SP),
                });
                insns.push(Insn::Alu {
                    op: AluOp::Add,
                    rd: dst,
                    rn: dst,
                    src: IsaOperand::Imm(off),
                });
            }
            MemBase::Param(t) => self.load_operand_disp(insns, Operand::Temp(*t), dst, disp),
        }
    }

    /// Compute the base byte address of a memory region into `dst`.
    fn emit_base_address(&self, insns: &mut Vec<Insn>, base: &MemBase, dst: Reg) {
        self.emit_base_address_disp(insns, base, dst, 0);
    }

    /// Compute the full element address `base + index*4` into `dst`,
    /// using `scratch` as an intermediate (must differ from `dst`).
    fn emit_element_address(
        &self,
        insns: &mut Vec<Insn>,
        base: &MemBase,
        index: Operand,
        dst: Reg,
        scratch: Reg,
    ) {
        debug_assert_ne!(dst, scratch);
        self.emit_base_address(insns, base, dst);
        match index {
            Operand::Const(i) => {
                let byte_off = i.wrapping_mul(4);
                if byte_off != 0 {
                    if imm16(byte_off) {
                        insns.push(Insn::Alu {
                            op: AluOp::Add,
                            rd: dst,
                            rn: dst,
                            src: IsaOperand::Imm(byte_off),
                        });
                    } else {
                        insns.push(Insn::MovImm32 {
                            rd: scratch,
                            imm: byte_off,
                        });
                        insns.push(Insn::Alu {
                            op: AluOp::Add,
                            rd: dst,
                            rn: dst,
                            src: IsaOperand::Reg(scratch),
                        });
                    }
                }
            }
            Operand::Temp(_) => {
                self.load_operand(insns, index, scratch);
                insns.push(Insn::Alu {
                    op: AluOp::Lsl,
                    rd: scratch,
                    rn: scratch,
                    src: IsaOperand::Imm(2),
                });
                insns.push(Insn::Alu {
                    op: AluOp::Add,
                    rd: dst,
                    rn: dst,
                    src: IsaOperand::Reg(scratch),
                });
            }
        }
    }
}

fn binop_to_alu(op: BinOp) -> Option<AluOp> {
    Some(match op {
        BinOp::Add => AluOp::Add,
        BinOp::Sub => AluOp::Sub,
        BinOp::Mul => AluOp::Mul,
        BinOp::Div => AluOp::Div,
        BinOp::Rem => AluOp::Rem,
        BinOp::And => AluOp::And,
        BinOp::Or => AluOp::Orr,
        BinOp::Xor => AluOp::Eor,
        BinOp::Shl => AluOp::Lsl,
        BinOp::Shr => AluOp::Lsr,
        _ => return None,
    })
}

fn binop_to_cond(op: BinOp) -> Option<Cond> {
    Some(match op {
        BinOp::Lt => Cond::Lt,
        BinOp::Le => Cond::Le,
        BinOp::Gt => Cond::Gt,
        BinOp::Ge => Cond::Ge,
        BinOp::Eq => Cond::Eq,
        BinOp::Ne => Cond::Ne,
        _ => return None,
    })
}

/// Count temp uses for register pinning.
fn usage_counts(f: &IrFunction) -> Vec<u64> {
    let mut counts = vec![0u64; f.temp_count as usize];
    let mut count = |t: Temp| counts[t.0 as usize] += 1;
    for b in &f.blocks {
        for op in &b.ops {
            for_each_read(op, &mut count);
            for_each_write(op, &mut count);
        }
        for_each_term_read(&b.term, &mut count);
    }
    counts
}

/// Partition the temps into copy-coalescing classes: two copy-related
/// temps whose live ranges never interfere share one storage home, so
/// the copy between them costs nothing at all (see [`emit_op`]).
///
/// Classic Chaitin-style coalescing over the global [`Liveness`] sets:
/// a backward walk per block records an interference edge from every
/// definition to every temp live across it — except the source of the
/// very copy being defined, whose value is by construction the same —
/// and a union-find then merges each copy pair whose classes are still
/// interference-free, scanning copies in deterministic block/op order.
/// Everything live into the entry block (parameters homed by the
/// prologue, read-before-def temps) counts as defined simultaneously
/// "at entry", so those never collapse onto each other.
///
/// Returns the class representative (lowest member index) per temp.
fn coalesce_classes(f: &IrFunction) -> Vec<usize> {
    use crate::dataflow::{for_each_read, for_each_term_read, for_each_write, BitSet, Liveness};

    let n = f.temp_count as usize;
    let live = Liveness::build(f);
    let mut interferes = vec![BitSet::new(n); n];
    fn add_edge(m: &mut [BitSet], a: usize, b: usize) {
        if a != b {
            m[a].insert(b);
            m[b].insert(a);
        }
    }

    let entry: Vec<usize> = live.live_in(0).iter().collect();
    for (i, &a) in entry.iter().enumerate() {
        for &b in &entry[i + 1..] {
            add_edge(&mut interferes, a, b);
        }
    }
    for (bi, b) in f.blocks.iter().enumerate() {
        let mut cur = live.live_out(bi).clone();
        for_each_term_read(&b.term, |t| {
            cur.insert(t.0 as usize);
        });
        for op in b.ops.iter().rev() {
            let copy_src = match op {
                IrOp::Copy {
                    src: Operand::Temp(s),
                    ..
                } => Some(s.0 as usize),
                _ => None,
            };
            for_each_write(op, |d| {
                let di = d.0 as usize;
                // A def clobbers its home even when the def itself is
                // dead, so it interferes with everything live here.
                for l in cur.iter().collect::<Vec<_>>() {
                    if Some(l) != copy_src {
                        add_edge(&mut interferes, di, l);
                    }
                }
                cur.remove(di);
            });
            for_each_read(op, |t| {
                cur.insert(t.0 as usize);
            });
        }
    }

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut parent: Vec<usize> = (0..n).collect();
    // Class-level interference rows and member bitmaps, merged on union.
    let mut class_if = interferes.clone();
    let mut members: Vec<BitSet> = (0..n)
        .map(|t| {
            let mut s = BitSet::new(n);
            s.insert(t);
            s
        })
        .collect();
    for b in &f.blocks {
        for op in &b.ops {
            if let IrOp::Copy {
                dst,
                src: Operand::Temp(s),
            } = op
            {
                let (ra, rb) = (
                    find(&mut parent, dst.0 as usize),
                    find(&mut parent, s.0 as usize),
                );
                if ra == rb || class_if[ra].intersects(&members[rb]) {
                    continue;
                }
                let (keep, drop) = (ra.min(rb), ra.max(rb));
                parent[drop] = keep;
                let (lo, hi) = class_if.split_at_mut(drop);
                lo[keep].union_with(&hi[0]);
                let (lo, hi) = members.split_at_mut(drop);
                lo[keep].union_with(&hi[0]);
            }
        }
    }
    (0..n).map(|t| find(&mut parent, t)).collect()
}

/// The largest argument count among the function's call sites. Argument
/// registers up to this index must stay out of the pinning pool (a 5- or
/// 6-argument call pops into r4/r5).
fn max_call_args(f: &IrFunction) -> usize {
    f.blocks
        .iter()
        .flat_map(|b| &b.ops)
        .filter_map(|op| match op {
            IrOp::Call { args, .. } => Some(args.len()),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// What code generation reads of an IR function state alone, whatever
/// the options: computed once by [`prepare`] and read by [`emit`]. The
/// compile memo keeps one per interned state, so a state generated under
/// several options validates, coalesces and proves its loop bounds once.
#[derive(Debug)]
pub(crate) struct Prepared {
    /// [`PIN_POOL`] minus the argument registers a call with more than 4
    /// arguments pops into.
    pool: Vec<Reg>,
    /// The storage class (its lowest member temp) of each temp.
    class_of: Vec<usize>,
    /// The class representatives, most-used first (summed member usage,
    /// lowest representative tie-break).
    ranked: Vec<usize>,
    /// How many classes are used at all: a prefix of `ranked`.
    used: usize,
    /// Whether some multiply has an operand `mul_shift_add` decomposes.
    decomposable_mul: bool,
    /// Annotation/inference bounds, intersected with the trip counts the
    /// value-graph prover derives from IR constants, including limits,
    /// inits and steps that flow through dominating def chains of temps:
    /// a provable count tightens an over-wide annotation (`bound(64)` on
    /// an 8-trip loop) and bounds counted loops that carry no annotation
    /// at all, so the IPET analysis downstream sees the sharpest
    /// available flow facts.
    loop_bounds: BTreeMap<BlockId, u32>,
}

impl Prepared {
    /// The options [`emit`] reads under `opts`: no more pinned registers
    /// than the pool holds or classes are used, and shift-add
    /// decomposition only when some multiply has a decomposable
    /// operand. Emitting under them gives the same code as under `opts`.
    pub(crate) fn effective(&self, opts: CodegenOpts) -> CodegenOpts {
        CodegenOpts {
            pinned_regs: opts.pinned_regs.min(self.pool.len()).min(self.used),
            mul_shift_add: opts.mul_shift_add && self.decomposable_mul,
        }
    }
}

impl CodegenOpts {
    /// The options code generation of `f` actually reads (see
    /// [`generate_function`]): `generate_function(f, layout, self)` and
    /// `generate_function(f, layout, self.effective_for(f))` return the
    /// same result. A function codegen rejects fails under every option
    /// alike and keeps `self`.
    pub fn effective_for(self, f: &IrFunction) -> CodegenOpts {
        prepare(f).map_or(self, |prepared| prepared.effective(self))
    }
}

/// Everything code generation reads of `f` alone: validation, the
/// pinning pool, the storage classes and their usage ranking, and the
/// loop bounds.
///
/// # Errors
/// [`CodegenError::InvalidIr`] or [`CodegenError::TooManyParams`].
pub(crate) fn prepare(f: &IrFunction) -> Result<Prepared, CodegenError> {
    f.validate().map_err(CodegenError::InvalidIr)?;
    if f.params.len() > 6 {
        return Err(CodegenError::TooManyParams(f.name.clone()));
    }
    // Calls with more than 4 arguments pop into r4/r5, so those registers
    // cannot hold pinned temps in this function.
    let pool: Vec<Reg> = PIN_POOL
        .iter()
        .copied()
        .filter(|r| r.index() >= max_call_args(f))
        .collect();

    // Coalesce copy-related temps into storage classes and rank the
    // classes by summed member usage.
    let class_of = coalesce_classes(f);
    let counts = usage_counts(f);
    let n = f.temp_count as usize;
    let mut class_usage = vec![0u64; n];
    for t in 0..n {
        class_usage[class_of[t]] += counts[t];
    }
    let mut ranked: Vec<usize> = (0..n).filter(|&t| class_of[t] == t).collect();
    ranked.sort_by_key(|&r| (std::cmp::Reverse(class_usage[r]), r));
    let used = ranked.iter().take_while(|&&r| class_usage[r] > 0).count();

    let decomposable_mul = f.blocks.iter().flat_map(|b| &b.ops).any(|op| {
        matches!(op, IrOp::Bin { op: BinOp::Mul, a, b, .. } if decomposition(*a, *b).is_some())
    });

    let mut loop_bounds: BTreeMap<BlockId, u32> = f
        .loop_bounds
        .iter()
        .map(|(b, n)| (BlockId(b.0), *n))
        .collect();
    for (header, trips) in crate::passes::value_graph_loop_bounds(f) {
        loop_bounds
            .entry(BlockId(header.0))
            .and_modify(|b| *b = (*b).min(trips))
            .or_insert(trips);
    }
    Ok(Prepared {
        pool,
        class_of,
        ranked,
        used,
        decomposable_mul,
        loop_bounds,
    })
}

/// Generate PG32 code for one IR function.
///
/// `pinned_regs` (0, 2 or 4) is the register-pinning level; `layout` must
/// be the layout of the final program's globals.
///
/// # Errors
/// See [`CodegenError`].
pub fn generate_function(
    f: &IrFunction,
    layout: &DataLayout,
    opts: impl Into<CodegenOpts>,
) -> Result<Function, CodegenError> {
    emit(f, &prepare(f)?, layout, opts.into())
}

/// Generate PG32 code for `f`, which `prepared` was prepared from.
///
/// # Errors
/// [`CodegenError::FrameTooLarge`].
pub(crate) fn emit(
    f: &IrFunction,
    prepared: &Prepared,
    layout: &DataLayout,
    opts: CodegenOpts,
) -> Result<Function, CodegenError> {
    let Prepared {
        pool,
        class_of,
        ranked,
        ..
    } = prepared;
    // Pin the most-used classes and give every remaining class one
    // stack slot. Copies between temps of one class vanish at emission.
    let n = f.temp_count as usize;
    let mut root_home = vec![None; n];
    let pinning = &ranked[..prepared.effective(opts).pinned_regs];
    for (&r, &reg) in pinning.iter().zip(pool) {
        root_home[r] = Some(Home::Pinned(reg));
    }

    // Slot assignment for the remaining classes, in representative order.
    let mut next_slot = 0u32;
    for r in 0..n {
        if class_of[r] == r && root_home[r].is_none() {
            root_home[r] = Some(Home::Slot(next_slot));
            next_slot += 4;
        }
    }
    let homes: Vec<Home> = (0..n)
        .map(|t| root_home[class_of[t]].expect("every class is homed"))
        .collect();
    let mut array_offsets = Vec::with_capacity(f.local_arrays.len());
    for len in &f.local_arrays {
        array_offsets.push(next_slot);
        next_slot += len * 4;
    }
    let frame_size = next_slot;
    if frame_size > 32_000 {
        return Err(CodegenError::FrameTooLarge(f.name.clone()));
    }

    let ctx = Ctx {
        homes,
        array_offsets,
        // The pool is in register order, so this is the push order.
        pinned: pool[..pinning.len()].to_vec(),
        layout,
        mul_shift_add: opts.mul_shift_add,
    };

    let mut blocks: Vec<Block> = Vec::with_capacity(f.blocks.len());
    for (bi, irb) in f.blocks.iter().enumerate() {
        let mut insns: Vec<Insn> = Vec::new();

        // Prologue on the entry block.
        if bi == 0 {
            let mut push_list = ctx.pinned.clone();
            push_list.push(Reg::LR);
            insns.push(Insn::Push { regs: push_list });
            if frame_size > 0 {
                insns.push(Insn::Alu {
                    op: AluOp::Sub,
                    rd: Reg::SP,
                    rn: Reg::SP,
                    src: IsaOperand::Imm(frame_size as i32),
                });
            }
            // Home the incoming arguments (r0..r5).
            for (i, p) in f.params.iter().enumerate() {
                let arg_reg = Reg::from_index(i).expect("≤6 params");
                ctx.store_temp(&mut insns, p.temp, arg_reg);
            }
        }

        for op in &irb.ops {
            emit_op(&ctx, &mut insns, op);
        }

        let terminator = match &irb.term {
            IrTerm::Jump(t) => Terminator::Branch(BlockId(t.0)),
            IrTerm::Branch {
                cond,
                taken,
                fallthrough,
            } => {
                ctx.load_operand(&mut insns, *cond, Reg::R1);
                insns.push(Insn::Cmp {
                    rn: Reg::R1,
                    src: IsaOperand::Imm(0),
                });
                Terminator::CondBranch {
                    cond: Cond::Ne,
                    taken: BlockId(taken.0),
                    fallthrough: BlockId(fallthrough.0),
                }
            }
            IrTerm::Ret(v) => {
                if let Some(v) = v {
                    ctx.load_operand(&mut insns, *v, Reg::R0);
                }
                if frame_size > 0 {
                    insns.push(Insn::Alu {
                        op: AluOp::Add,
                        rd: Reg::SP,
                        rn: Reg::SP,
                        src: IsaOperand::Imm(frame_size as i32),
                    });
                }
                let mut pop_list = ctx.pinned.clone();
                pop_list.push(Reg::LR);
                insns.push(Insn::Pop { regs: pop_list });
                Terminator::Return
            }
        };
        blocks.push(Block { insns, terminator });
    }

    Ok(Function {
        name: f.name.clone(),
        blocks,
        loop_bounds: prepared.loop_bounds.clone(),
        frame_size,
    })
}

/// Small positive multiplier eligible for shift/add decomposition.
fn decomposable_multiplier(c: i32) -> bool {
    (2..=255).contains(&c) && c.count_ones() <= 3
}

/// The multiplicand and constant multiplier of a multiply `a * b` that
/// `mul_shift_add` decomposes, if it is one.
fn decomposition(a: Operand, b: Operand) -> Option<(Operand, i32)> {
    match (a, b) {
        (x, Operand::Const(c)) if decomposable_multiplier(c) => Some((x, c)),
        (Operand::Const(c), x) if decomposable_multiplier(c) => Some((x, c)),
        _ => None,
    }
}

fn emit_op(ctx: &Ctx<'_>, insns: &mut Vec<Insn>, op: &IrOp) {
    match op {
        IrOp::Bin { op, dst, a, b } => {
            // Energy-saving multiply decomposition: the whole chain stays
            // in registers, so the only cost is the extra ALU cycles.
            if ctx.mul_shift_add && *op == BinOp::Mul {
                if let Some((x, c)) = decomposition(*a, *b) {
                    ctx.load_operand(insns, x, Reg::R1);
                    let mut first = true;
                    for bit in 0..8 {
                        if c & (1 << bit) == 0 {
                            continue;
                        }
                        if first {
                            insns.push(Insn::Alu {
                                op: AluOp::Lsl,
                                rd: Reg::R0,
                                rn: Reg::R1,
                                src: IsaOperand::Imm(bit),
                            });
                            first = false;
                        } else {
                            insns.push(Insn::Alu {
                                op: AluOp::Lsl,
                                rd: Reg::R2,
                                rn: Reg::R1,
                                src: IsaOperand::Imm(bit),
                            });
                            insns.push(Insn::Alu {
                                op: AluOp::Add,
                                rd: Reg::R0,
                                rn: Reg::R0,
                                src: IsaOperand::Reg(Reg::R2),
                            });
                        }
                    }
                    ctx.store_temp(insns, *dst, Reg::R0);
                    return;
                }
            }
            if let Some(alu) = binop_to_alu(*op) {
                ctx.load_operand(insns, *a, Reg::R1);
                // Immediate second operand when it fits.
                match b {
                    Operand::Const(v) if imm16(*v) && !matches!(op, BinOp::Shl | BinOp::Shr) => {
                        insns.push(Insn::Alu {
                            op: alu,
                            rd: Reg::R0,
                            rn: Reg::R1,
                            src: IsaOperand::Imm(*v),
                        });
                    }
                    Operand::Const(v)
                        if matches!(op, BinOp::Shl | BinOp::Shr) && (0..32).contains(v) =>
                    {
                        insns.push(Insn::Alu {
                            op: alu,
                            rd: Reg::R0,
                            rn: Reg::R1,
                            src: IsaOperand::Imm(*v),
                        });
                    }
                    _ => {
                        ctx.load_operand(insns, *b, Reg::R2);
                        insns.push(Insn::Alu {
                            op: alu,
                            rd: Reg::R0,
                            rn: Reg::R1,
                            src: IsaOperand::Reg(Reg::R2),
                        });
                    }
                }
                ctx.store_temp(insns, *dst, Reg::R0);
            } else if let Some(cond) = binop_to_cond(*op) {
                ctx.load_operand(insns, *a, Reg::R1);
                ctx.load_operand(insns, *b, Reg::R2);
                insns.push(Insn::Cmp {
                    rn: Reg::R1,
                    src: IsaOperand::Reg(Reg::R2),
                });
                insns.push(Insn::Mov {
                    rd: Reg::R1,
                    src: IsaOperand::Imm(1),
                });
                insns.push(Insn::Mov {
                    rd: Reg::R2,
                    src: IsaOperand::Imm(0),
                });
                insns.push(Insn::Csel {
                    cond,
                    rd: Reg::R0,
                    rt: Reg::R1,
                    rf: Reg::R2,
                });
                ctx.store_temp(insns, *dst, Reg::R0);
            } else {
                // LogAnd/LogOr appear only pre-lowering; treat as bitwise
                // on normalised 0/1 is NOT equivalent, so they are
                // rejected by IR validation upstream. Emit a trap-like
                // no-op to keep the match exhaustive.
                unreachable!("logical operators are lowered to control flow");
            }
        }
        IrOp::Un { op, dst, a } => {
            match op {
                UnOp::Neg => {
                    ctx.load_operand(insns, *a, Reg::R1);
                    insns.push(Insn::Mov {
                        rd: Reg::R2,
                        src: IsaOperand::Imm(0),
                    });
                    insns.push(Insn::Alu {
                        op: AluOp::Sub,
                        rd: Reg::R0,
                        rn: Reg::R2,
                        src: IsaOperand::Reg(Reg::R1),
                    });
                }
                UnOp::BitNot => {
                    ctx.load_operand(insns, *a, Reg::R1);
                    insns.push(Insn::Alu {
                        op: AluOp::Eor,
                        rd: Reg::R0,
                        rn: Reg::R1,
                        src: IsaOperand::Imm(-1),
                    });
                }
                UnOp::LogNot => {
                    ctx.load_operand(insns, *a, Reg::R1);
                    insns.push(Insn::Cmp {
                        rn: Reg::R1,
                        src: IsaOperand::Imm(0),
                    });
                    insns.push(Insn::Mov {
                        rd: Reg::R1,
                        src: IsaOperand::Imm(1),
                    });
                    insns.push(Insn::Mov {
                        rd: Reg::R2,
                        src: IsaOperand::Imm(0),
                    });
                    insns.push(Insn::Csel {
                        cond: Cond::Eq,
                        rd: Reg::R0,
                        rt: Reg::R1,
                        rf: Reg::R2,
                    });
                }
            }
            ctx.store_temp(insns, *dst, Reg::R0);
        }
        IrOp::Copy { dst, src } => {
            // A copy between coalesced temps is storage-identical.
            if let Operand::Temp(s) = src {
                if ctx.homes[s.0 as usize] == ctx.homes[dst.0 as usize] {
                    return;
                }
            }
            ctx.load_operand(insns, *src, Reg::R0);
            ctx.store_temp(insns, *dst, Reg::R0);
        }
        IrOp::Load { dst, base, index } => {
            ctx.emit_element_address(insns, base, *index, Reg::R1, Reg::R2);
            insns.push(Insn::Ldr {
                rd: Reg::R0,
                base: Reg::R1,
                offset: IsaOperand::Imm(0),
            });
            ctx.store_temp(insns, *dst, Reg::R0);
        }
        IrOp::Store { base, index, value } => {
            ctx.emit_element_address(insns, base, *index, Reg::R1, Reg::R2);
            ctx.load_operand(insns, *value, Reg::R0);
            insns.push(Insn::Str {
                rs: Reg::R0,
                base: Reg::R1,
                offset: IsaOperand::Imm(0),
            });
        }
        IrOp::Call { dst, func, args } => {
            // Stage arguments in a scratch area below the frame so that
            // loading argument k cannot clobber argument registers already
            // populated, and SP-relative slots stay addressable via a
            // constant displacement.
            let k = args.len() as i32;
            if k > 0 {
                insns.push(Insn::Alu {
                    op: AluOp::Sub,
                    rd: Reg::SP,
                    rn: Reg::SP,
                    src: IsaOperand::Imm(4 * k),
                });
                for (i, a) in args.iter().enumerate() {
                    match a {
                        CallArg::Value(v) => ctx.load_operand_disp(insns, *v, Reg::R1, 4 * k),
                        CallArg::ArrayRef(m) => {
                            ctx.emit_base_address_disp(insns, m, Reg::R1, 4 * k)
                        }
                    }
                    insns.push(Insn::Str {
                        rs: Reg::R1,
                        base: Reg::SP,
                        offset: IsaOperand::Imm(4 * i as i32),
                    });
                }
                for i in 0..args.len() {
                    insns.push(Insn::Ldr {
                        rd: Reg::from_index(i).expect("at most 6 args"),
                        base: Reg::SP,
                        offset: IsaOperand::Imm(4 * i as i32),
                    });
                }
                insns.push(Insn::Alu {
                    op: AluOp::Add,
                    rd: Reg::SP,
                    rn: Reg::SP,
                    src: IsaOperand::Imm(4 * k),
                });
            }
            insns.push(Insn::Call { func: func.clone() });
            if let Some(d) = dst {
                ctx.store_temp(insns, *d, Reg::R0);
            }
        }
        IrOp::Select { dst, cond, t, f } => {
            ctx.load_operand(insns, *cond, Reg::R1);
            ctx.load_operand(insns, *t, Reg::R2);
            ctx.load_operand(insns, *f, Reg::R3);
            insns.push(Insn::Cmp {
                rn: Reg::R1,
                src: IsaOperand::Imm(0),
            });
            insns.push(Insn::Csel {
                cond: Cond::Ne,
                rd: Reg::R0,
                rt: Reg::R2,
                rf: Reg::R3,
            });
            ctx.store_temp(insns, *dst, Reg::R0);
        }
        IrOp::In { dst, port } => {
            insns.push(Insn::In {
                rd: Reg::R0,
                port: *port,
            });
            ctx.store_temp(insns, *dst, Reg::R0);
        }
        IrOp::Out { port, value } => {
            ctx.load_operand(insns, *value, Reg::R1);
            insns.push(Insn::Out {
                rs: Reg::R1,
                port: *port,
            });
        }
    }
}

/// Generate a full PG32 program from an IR module, applying the same
/// pinning level to every function.
///
/// # Errors
/// See [`CodegenError`].
pub fn generate_program(
    module: &IrModule,
    opts: impl Into<CodegenOpts>,
) -> Result<Program, CodegenError> {
    let opts = opts.into();
    let mut program = Program::new();
    for (name, words) in &module.globals {
        program.globals.insert(name.clone(), words.clone());
    }
    let layout = DataLayout::of_program(&program);
    for f in &module.functions {
        program.add_function(generate_function(f, &layout, opts)?);
    }
    program.validate().map_err(CodegenError::InvalidIr)?;
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use teamplay_minic::compile_to_ir;
    use teamplay_minic::interp::{Interp, RecordingPorts};
    use teamplay_sim::{Machine, RecordingDevice};

    /// Differential: AST interpreter vs compiled code on the machine.
    fn check_compiled(src: &str, func: &str, argsets: &[Vec<i32>], pinned: usize) {
        let program_ast = teamplay_minic::parse_and_check(src).expect("front-end");
        let module = compile_to_ir(src).expect("front-end");
        let program = generate_program(&module, pinned).expect("codegen");
        let mut machine = Machine::new(program).expect("load");
        for args in argsets {
            let mut interp = Interp::new(&program_ast, RecordingPorts::new(), 50_000_000);
            let expected = interp.call(func, args).expect("oracle").return_value;
            machine.reset_data();
            let mut dev = RecordingDevice::new();
            let got = machine.call(func, args, &mut dev).expect("machine run");
            assert_eq!(
                Some(got.return_value),
                expected,
                "pinned={pinned}, diverged on {func}({args:?})"
            );
        }
    }

    const KERNEL: &str = "
        int weights[8] = {3, 1, 4, 1, 5, 9, 2, 6};
        int dot(int a[], int n) {
            int s = 0;
            /*@ loop bound(8) @*/
            for (int i = 0; i < n; i = i + 1) { s = s + a[i] * weights[i]; }
            return s;
        }
        int f(int n) {
            int buf[8];
            for (int i = 0; i < 8; i = i + 1) { buf[i] = i * i - 3; }
            return dot(buf, n);
        }";

    #[test]
    fn straight_line_matches_oracle() {
        for pinned in [0, 2, 4] {
            check_compiled(
                "int f(int a, int b) { return (a + b) * (a - b) / 3 % 7 ^ (a << 2) ^ (b >> 1); }",
                "f",
                &[vec![10, 3], vec![-5, 9], vec![0, 0], vec![i32::MAX, 1]],
                pinned,
            );
        }
    }

    #[test]
    fn control_flow_matches_oracle() {
        for pinned in [0, 4] {
            check_compiled(
                "int f(int x) {
                    int r = 0;
                    if (x > 10 && x < 100) { r = 1; }
                    else if (!(x == 5) || x >= -3) { r = 2; } else { r = 3; }
                    while (x > 0) { x = x - 7; r = r + x; }
                    return r * 10 + x;
                }",
                "f",
                &[vec![50], vec![5], vec![-10], vec![0], vec![101]],
                pinned,
            );
        }
    }

    #[test]
    fn arrays_and_calls_match_oracle() {
        for pinned in [0, 2, 4] {
            check_compiled(KERNEL, "f", &[vec![0], vec![4], vec![8]], pinned);
        }
    }

    #[test]
    fn unary_and_comparisons_match_oracle() {
        check_compiled(
            "int f(int x, int y) { return (-x + ~y) * (!x + (x < y) + (x == y) * 2); }",
            "f",
            &[vec![0, 0], vec![3, -3], vec![-7, 7], vec![1, 1]],
            2,
        );
    }

    #[test]
    fn ports_match_oracle() {
        let src = "int f() { int x = __in(2); __out(5, x * 3); return x + 1; }";
        let program_ast = teamplay_minic::parse_and_check(src).expect("front-end");
        let module = compile_to_ir(src).expect("front-end");
        let program = generate_program(&module, 2).expect("codegen");
        let mut machine = Machine::new(program).expect("load");
        let mut oracle_ports = RecordingPorts::new();
        oracle_ports.queue(2, [14]);
        let mut interp = Interp::new(&program_ast, oracle_ports, 10_000);
        let expected = interp.call("f", &[]).expect("oracle").return_value;
        let expected_out = interp.into_ports().outputs;
        let mut dev = RecordingDevice::new();
        dev.queue(2, [14]);
        let got = machine.call("f", &[], &mut dev).expect("run");
        assert_eq!(Some(got.return_value), expected);
        assert_eq!(dev.outputs, expected_out);
    }

    #[test]
    fn pinning_reduces_cycles_and_energy() {
        let module = compile_to_ir(KERNEL).expect("front-end");
        let p0 = generate_program(&module, 0).expect("codegen 0");
        let p4 = generate_program(&module, 4).expect("codegen 4");
        let mut m0 = Machine::new(p0).expect("load 0");
        let mut m4 = Machine::new(p4).expect("load 4");
        let r0 = m0
            .call("f", &[8], &mut RecordingDevice::new())
            .expect("run 0");
        let r4 = m4
            .call("f", &[8], &mut RecordingDevice::new())
            .expect("run 4");
        assert_eq!(r0.return_value, r4.return_value);
        assert!(
            r4.cycles < r0.cycles,
            "pinning must save cycles: {} vs {}",
            r4.cycles,
            r0.cycles
        );
        assert!(r4.energy_pj < r0.energy_pj, "pinning must save energy");
    }

    #[test]
    fn six_args_supported_seven_rejected() {
        let src6 = "int f(int a, int b, int c, int d, int e, int g) { return a+b+c+d+e+g; }";
        check_compiled(src6, "f", &[vec![1, 2, 3, 4, 5, 6]], 0);
        let module =
            compile_to_ir("int f(int a, int b, int c, int d, int e, int g, int h) { return a+h; }")
                .expect("front-end");
        assert!(matches!(
            generate_program(&module, 0),
            Err(CodegenError::TooManyParams(_))
        ));
    }

    #[test]
    fn loop_bounds_transfer_to_binary() {
        let module = compile_to_ir(
            "int f() { int s = 0; for (int i = 0; i < 12; i = i + 1) { s = s + i; } return s; }",
        )
        .expect("front-end");
        let program = generate_program(&module, 0).expect("codegen");
        let f = program.function("f").expect("f");
        assert_eq!(
            f.loop_bounds.values().copied().collect::<Vec<_>>(),
            vec![12]
        );
    }

    #[test]
    fn wcet_bounds_simulated_cycles() {
        use teamplay_isa::CycleModel;
        let module = compile_to_ir(KERNEL).expect("front-end");
        for pinned in [0, 2, 4] {
            let program = generate_program(&module, pinned).expect("codegen");
            let report =
                teamplay_wcet::analyze_program(&program, &CycleModel::pg32()).expect("wcet");
            let wcet = report.wcet_cycles("f").expect("f");
            let mut machine = Machine::new(program).expect("load");
            for n in [0, 3, 8] {
                machine.reset_data();
                let r = machine
                    .call("f", &[n], &mut RecordingDevice::new())
                    .expect("run");
                assert!(
                    wcet >= r.cycles,
                    "pinned={pinned} n={n}: WCET {wcet} < measured {}",
                    r.cycles
                );
            }
        }
    }

    #[test]
    fn wcec_bounds_measured_energy() {
        use teamplay_energy::{analyze_program_energy, IsaEnergyModel};
        use teamplay_isa::CycleModel;
        let module = compile_to_ir(KERNEL).expect("front-end");
        let program = generate_program(&module, 2).expect("codegen");
        let report = analyze_program_energy(
            &program,
            &IsaEnergyModel::pg32_datasheet(),
            &CycleModel::pg32(),
        )
        .expect("wcec");
        let wcec = report.wcec_pj("f").expect("f");
        let mut machine = Machine::new(program).expect("load");
        for n in [0, 3, 8] {
            machine.reset_data();
            let r = machine
                .call("f", &[n], &mut RecordingDevice::new())
                .expect("run");
            assert!(
                wcec >= r.energy_pj,
                "WCEC {wcec} < measured {}",
                r.energy_pj
            );
        }
    }
}
