//! The pre-decoded execution engine.
//!
//! [`crate::machine::Machine`] walks the CFG directly and pays full
//! interpreter tax on every step: an [`teamplay_isa::Operand`] match, a
//! block-vector indirection, an energy-table call through `Option`
//! branching. This module lowers a validated program **once** into
//! [`DecodedProgram`] — the flat [`teamplay_isa::DecodedImage`] op array
//! zipped with a parallel [`OpCost`] array that bakes in every per-op
//! cycle and energy constant — and executes it with [`DecodedEngine`], a
//! direct-threaded dispatch loop whose per-step work is one `match` on a
//! `Copy` op plus a handful of array indexes. No `HashMap`, no name
//! lookup, no per-step cost-model call survives into the hot loop.
//!
//! # Bit-identical accounting
//!
//! The engine is only useful if its results are *interchangeable* with
//! the reference interpreter's, so the energy accumulation replicates the
//! reference f64 operation order exactly:
//!
//! ```text
//! energy += ((base + overhead[prev][cur]) + stack_extra) + leakage·cycles
//! ```
//!
//! with a zero-filled sentinel overhead row standing in for "no previous
//! instruction" (adding `+0.0` to a positive base is a bitwise identity).
//! The differential oracle in `tests/wcet_tightness_oracle.rs` holds
//! `RunResult` — including `energy_pj` to the last bit — equal between
//! the two engines on every registry pipeline, the proptest kernels and
//! the four app kernels.
//!
//! # The exact-integer fast path
//!
//! Replaying the reference's f64 additions per step would chain every
//! dispatch through a floating-point dependency. Instead the engine
//! exploits that f64 energy is a *function of integer events*: runs
//! where every conditional branch outcome is counted exactly can charge
//! energy **per run**, not per step. The fast loop only maintains
//!
//! * `cycles` (u64, for the budget check) and
//! * two deferred counters per conditional branch (`hits_t`/`hits_nt`);
//!
//! all other per-op increments fold into per-function aggregates
//! (`RunAgg`) baked at decode time. At run exit the counters multiply
//! against per-site constants (`u64` multiply ≡ repeated wrapping add,
//! so this is exact) and a *replay in reference order* of the f64
//! combination reconstructs the identical bit pattern. Runs that might
//! exceed the cycle budget (detected against a per-entry worst-case
//! pre-charge) hand off to a careful per-instruction loop that matches
//! the reference step for step, so even trap cycles are exact.
//!
//! # Fault injection
//!
//! [`DecodedEngine::call_faulted`] injects one [`FaultSpec`] exactly as
//! [`crate::machine::Machine::call_faulted`] does, through the same run
//! core as [`DecodedEngine::call`]. The fast path needs no injection
//! hook of its own: its per-run doom check, `cycles + pre[entry]`
//! against the budget, already names the last instruction boundary
//! inside the next run. A pending fault lowers that limit to the cycle
//! before its target, so the fast path stops at the entry of the run
//! that reaches the target and hands over to the careful loop. With no
//! fault the limit is the budget alone, and unfaulted runs execute
//! exactly the code they always did. A fault at cycle 0 starts in the
//! careful loop.
//!
//! The careful loop applies the upset at the first boundary at or past
//! the target, after the budget check, as the reference does: a
//! register flip hits `regs[reg % 16]`, a memory flip
//! `mem[word % MEM_WORDS]`, and a skip charges the next op that is not
//! a `Branch`, `CondBranch`, `Ret` or `Halt` (a `Call`, `In` or `Push`
//! included) but suppresses its effect. Once the fault has fired and no
//! skip is pending, the careful loop returns to the fast path at the
//! next run entry, right after a control op. It reseeds the integer
//! energy accumulator from its f64 sum, which is an exact integer under
//! the exact tables, and the limit goes back to the budget. The rest of
//! the run is full speed again; without that re-entry a campaign would
//! spend most of each faulted run in the careful loop.
//!
//! # Superinstruction fusion
//!
//! Dispatch — the indirect branch per slot — dominates once per-op work
//! is this small, so decode tiles the dynamically dominant adjacent op
//! pairs of the app kernels into fused `HotOp` variants (store→load,
//! load→ALU, compare→branch, …), then runs a fixpoint of pairwise
//! re-fusion that grows 4-, 6-, 8-, 10- and 13-op *megaops* covering the
//! kernels' hot inner loops. Fusion is pc-stable: a fused unit lives in
//! its first op's slot, absorbed slots are never branch targets (fusion
//! refuses to cross block starts), and every fused arm charges exactly
//! the ops the reference would. The dispatch table is padded to a power
//! of two so the fetch is a masked (provably in-bounds) index.
//!
//! Within a fused arm the decoder's static knowledge pays once more:
//! operands known to be the previous micro-op's destination forward the
//! just-computed value instead of re-reading the register file, and a
//! store followed by a load from the same address forwards the stored
//! word — both exact by construction, both transformations LLVM cannot
//! make through a dynamically-indexed register array.
//!
//! Net effect on the four app kernels (single thread, `sim_throughput`
//! bench, CI-class host): ~0.9–1.0 G simulated cycles/sec vs the
//! reference's ~0.25–0.28 G — a 3.5–3.9× speedup at 4.5–7.7 retired
//! guest ops per dispatch, recorded in `BENCH_sim.json` and floored at
//! `speedup ≥ 1` by `support/ci/validate_bench.py`.

use crate::fault::FaultSpec;
use crate::machine::{zeroed_mem, MachineError, RunResult, MAX_CALL_DEPTH, MEM_WORDS};
use crate::ports::PortDevice;
use crate::truth::GroundTruthEnergy;
use teamplay_isa::{
    decode_program, AluOp, Cond, CycleModel, DataLayout, DecodedImage, DecodedOp, EnergyClass,
    Program, Reg, RegListRef, DATA_BASE, ENERGY_CLASS_COUNT, MEMORY_BYTES, STACK_TOP,
};

/// Per-op constants baked at decode time: cycles, energy-class index and
/// the *complete* per-step energy increment. Conditional branches carry
/// both outcome variants (`*_nt` = not taken); every other op has
/// `cyc == cyc_nt` and `inc_pj == inc_nt_pj`.
///
/// The increment can be a single constant because the previous energy
/// class — the only runtime input to the reference's circuit-state
/// overhead — is statically known for every op: each control-transfer
/// source in PG32 (`Branch`, `CondBranch`, `Call`, `Return`) charges as
/// [`EnergyClass::Branch`], so a block-entry op's dynamic predecessor is
/// always `Branch`, and every other op is preceded by its textual
/// neighbour (a post-call resume site sees `Return`'s class, which
/// equals the textual `Call`'s class — `Branch` again).
#[derive(Debug, Clone, Copy)]
pub struct OpCost {
    /// Cycles charged (taken outcome for conditional branches).
    pub cyc: u64,
    /// Cycles charged on the not-taken outcome.
    pub cyc_nt: u64,
    /// `EnergyClass::index()` of the op.
    pub class: u8,
    /// Full energy increment (pJ): `((base [+ overhead]) [+ stack]) +
    /// leakage·cyc`, combined at decode time in the reference f64 order.
    pub inc_pj: f64,
    /// The not-taken-outcome increment (uses `cyc_nt` leakage).
    pub inc_nt_pj: f64,
}

/// One hot-loop slot: the op and its baked costs side by side, so the
/// dispatch loop touches a single array (one bounds check, one cache
/// stream) per step.
#[derive(Clone, Copy)]
struct Step {
    op: DecodedOp,
    cost: OpCost,
}

/// Fast-loop opcode: the base [`DecodedOp`] repertoire plus fused
/// *superinstructions* for the dynamically dominant adjacent pairs of
/// the app kernels (store→load, load→ALU, compare→branch, …). One fused
/// slot retires two guest ops per dispatch, halving the indirect-branch
/// pressure that dominates interpreter cost.
///
/// Fusion is **pc-stable**: a fused pair lives in the *first* op's slot
/// and its arm advances `pc` by two; the second op's slot keeps its
/// un-fused form. Pairs are only formed when the second op is not a
/// block start, so control flow can never land on a skipped slot —
/// every entry point (function entries, branch/call targets, post-call
/// resume sites) dispatches exactly the ops the reference would.
/// `MovI32` folds into `MovI` here: the width distinction is a cost
/// artifact and the fast loop charges costs per run, not per op.
#[derive(Clone, Copy)]
enum HotOp {
    AluRR {
        op: AluOp,
        rd: u8,
        rn: u8,
        rm: u8,
    },
    AluRI {
        op: AluOp,
        rd: u8,
        rn: u8,
        imm: i32,
    },
    MovR {
        rd: u8,
        rm: u8,
    },
    MovI {
        rd: u8,
        imm: i32,
    },
    CmpR {
        rn: u8,
        rm: u8,
    },
    CmpI {
        rn: u8,
        imm: i32,
    },
    Csel {
        cond: Cond,
        rd: u8,
        rt: u8,
        rf: u8,
    },
    LdrR {
        rd: u8,
        base: u8,
        roff: u8,
    },
    LdrI {
        rd: u8,
        base: u8,
        imm: i32,
    },
    StrR {
        rs: u8,
        base: u8,
        roff: u8,
    },
    StrI {
        rs: u8,
        base: u8,
        imm: i32,
    },
    Push {
        list: RegListRef,
    },
    Pop {
        list: RegListRef,
    },
    Call {
        target: u32,
    },
    In {
        rd: u8,
        port: u8,
    },
    Out {
        rs: u8,
        port: u8,
    },
    Nop,
    Branch {
        target: u32,
    },
    CondBranch {
        cond: Cond,
        taken: u32,
        fallthrough: u32,
    },
    Ret,
    Halt,
    // ---- fused straight-line pairs (arm advances pc by 2) ----
    StrILdrI(PStrLdr),
    LdrIStrI(PLdrStr),
    LdrILdrI(PLdrLdr),
    LdrIAluRI(PLdrAluRI),
    LdrIAluRR(PLdrAluRR),
    LdrIMovI(PLdrMov),
    LdrICmpI(PLdrCmpI),
    AluRILdrI(PAluRILdr),
    AluRIStrI(PAluRIStr),
    AluRIAluRR(PAluRIAluRR),
    AluRRLdrI(PAluRRLdr),
    AluRRStrI(PAluRRStr),
    MovILdrI(PMovLdr),
    MovIMovI(PMovMov),
    MovICmpR(PMovCmpR),
    MovICsel(PMovCsel),
    CselStrI(PCselStr),
    CmpRMovI(PCmpRMov),
    StrIMovI(PStrMov),
    StrIMovR(PStrMovR),
    MovRAluRI(PMovRAluRI),
    // ---- fused run tails (first op + the run-ending control op; the
    // arm charges the run aggregate recorded at `pc + 1`) ----
    CmpICondBranch(PCmpICb),
    CmpRCondBranch(PCmpRCb),
    StrIBranch(PStrBr),
    // ---- second-round fusions: two adjacent pairs become a quad (arm
    // advances pc by 4; a control tail charges the aggregate at
    // `pc + 3`), and pair+branch becomes a triple (charge at `pc + 2`).
    QLdrMovCmpRMov(PLdrMov, PCmpRMov),
    QCmpRMovMovCsel(PCmpRMov, PMovCsel),
    QMovCselStrLdr(PMovCsel, PStrLdr),
    QStrLdrCmpICb(PStrLdr, PCmpICb),
    QLdrAluRIStrLdr(PLdrAluRI, PStrLdr),
    QAluRIAluRRLdrStr(PAluRIAluRR, PLdrStr),
    QMovLdrAluRIAluRR(PMovLdr, PAluRIAluRR),
    QStrLdrStrBr(PStrLdr, PStrBr),
    QStrLdrAluRIStr(PStrLdr, PAluRIStr),
    QLdrMovAluRRStr(PLdrMov, PAluRRStr),
    QAluRRStrLdrStr(PAluRRStr, PLdrStr),
    QAluRRStrLdrMov(PAluRRStr, PLdrMov),
    QAluRRStrLdrAluRI(PAluRRStr, PLdrAluRI),
    QLdrStrLdrAluRI(PLdrStr, PLdrAluRI),
    QAluRILdrAluRIAluRR(PAluRILdr, PAluRIAluRR),
    QAluRRLdrStrLdr(PAluRRLdr, PStrLdr),
    QLdrLdrAluRRStr(PLdrLdr, PAluRRStr),
    QLdrStrLdrLdr(PLdrStr, PLdrLdr),
    TLdrStrBr(PLdrStr, u32),
    // ---- later-round fusions: adjacent quads (or a quad plus a fused
    // tail) merge into one mega unit covering a whole measured hot
    // chain, so the dominant loop bodies retire in one or two
    // dispatches. Straight megas advance pc by their width; control
    // megas charge the aggregate at `pc + width - 1`. Widths noted per
    // variant.
    OLdrMovCmpRMovCselStrLdr(PLdrMov, PCmpRMov, PMovCsel, PStrLdr), // 8
    DLdrMovCmpRMovCselStrLdrCmpICb(PLdrMov, PCmpRMov, PMovCsel, PStrLdr, PCmpICb), // 10, control
    SLdrAluRIStrLdrStrBr(PLdrAluRI, PStrLdr, PStrBr),               // 6, control
    SLdrMovAluRRStrLdrStrBr(PLdrMov, PAluRRStr, PLdrStr, u32),      // 7, control
    OLdrMovAluRRStrLdrMovCmpRMov(PLdrMov, PAluRRStr, PLdrMov, PCmpRMov), // 8
    SMovCselStrLdrCmpICb(PMovCsel, PStrLdr, PCmpICb),               // 6, control
    OLdrStrLdrAluRIStrLdrStrBr(PLdrStr, PLdrAluRI, PStrLdr, PStrBr), // 8, control
    OMovLdrAluRIAluRRLdrStrLdrLdr(PMovLdr, PAluRIAluRR, PLdrStr, PLdrLdr), // 8
    OLdrStrLdrLdrAluRRStrLdrAluRI(PLdrStr, PLdrLdr, PAluRRStr, PLdrAluRI), // 8
    SAluRRStrLdrAluRIStrMovR(PAluRRStr, PLdrAluRI, PStrMovR),       // 6
    QStrLdrLdrAluRR(PStrLdr, PLdrAluRR),                            // 4
    WLdrAluRIStrLdrMov(PLdrAluRI, PStrLdr, PMov),                   // 5
    WAluRRStrLdrStrBr(PAluRRStr, PLdrStr, u32),                     // 5, control
    SLdrAluRIStrLdrAluRIStr(PLdrAluRI, PStrLdr, PAluRIStr),         // 6
    SLdrAluRRStrLdrAluRIStr(PLdrAluRR, PStrLdr, PAluRIStr),         // 6
    SLdrAluRIAluRRLdrStrLdr(PLdrAluRI, PAluRRLdr, PStrLdr),         // 6
    SMovLdrAluRIAluRRLdrStr(PMovLdr, PAluRIAluRR, PLdrStr),         // 6
    SAluRILdrAluRIAluRRLdrStr(PAluRILdr, PAluRIAluRR, PLdrStr),     // 6
    OMovLdrAluRIAluRRLdrStrLdrAluRI(PMovLdr, PAluRIAluRR, PLdrStr, PLdrAluRI), // 8
    OLdrLdrAluRRStrMovLdrAluRIAluRR(PLdrLdr, PAluRRStr, PMovLdr, PAluRIAluRR), // 8
    OCmpRMovMovCselStrLdrCmpICb(PCmpRMov, PMovCsel, PStrLdr, PCmpICb), // 8, control
    XLdrAluRIStrLdrMovAluRRStrLdrStrBr(PLdrAluRI, PStrLdr, PMov, PAluRRStr, PLdrStr, u32), // 10, control
    #[allow(clippy::type_complexity)]
    XLdrAluRIStrLdrAluRIStrLdrMovAluRRStrLdrStrBr(
        PLdrAluRI,
        PStrLdr,
        PAluRIStr,
        PLdrMov,
        PAluRRStr,
        PLdrStr,
        u32,
    ), // 13, control
}

/// Payloads of the fused superinstructions. Field prefixes keep the two
/// constituent ops' operands apart; every register index is masked with
/// `& 15` at use, so `u8` fields stay bounds-check-free.
#[derive(Clone, Copy)]
struct PStrLdr {
    rs: u8,
    sbase: u8,
    simm: i32,
    rd: u8,
    lbase: u8,
    limm: i32,
}
#[derive(Clone, Copy)]
struct PLdrStr {
    rd: u8,
    lbase: u8,
    limm: i32,
    rs: u8,
    sbase: u8,
    simm: i32,
}
#[derive(Clone, Copy)]
struct PLdrLdr {
    rd0: u8,
    base0: u8,
    imm0: i32,
    rd1: u8,
    base1: u8,
    imm1: i32,
}
#[derive(Clone, Copy)]
struct PLdrAluRI {
    rd: u8,
    base: u8,
    imm: i32,
    aop: AluOp,
    ard: u8,
    arn: u8,
    aimm: i32,
}
#[derive(Clone, Copy)]
struct PLdrAluRR {
    rd: u8,
    base: u8,
    imm: i32,
    aop: AluOp,
    ard: u8,
    arn: u8,
    arm: u8,
}
#[derive(Clone, Copy)]
struct PLdrMov {
    rd: u8,
    base: u8,
    imm: i32,
    mrd: u8,
    mimm: i32,
}
#[derive(Clone, Copy)]
struct PLdrCmpI {
    rd: u8,
    base: u8,
    imm: i32,
    crn: u8,
    cimm: i32,
}
#[derive(Clone, Copy)]
struct PAluRILdr {
    aop: AluOp,
    ard: u8,
    arn: u8,
    aimm: i32,
    rd: u8,
    base: u8,
    imm: i32,
}
#[derive(Clone, Copy)]
struct PAluRIStr {
    aop: AluOp,
    ard: u8,
    arn: u8,
    aimm: i32,
    rs: u8,
    base: u8,
    imm: i32,
}
#[derive(Clone, Copy)]
struct PAluRIAluRR {
    op0: AluOp,
    rd0: u8,
    rn0: u8,
    imm0: i32,
    op1: AluOp,
    rd1: u8,
    rn1: u8,
    rm1: u8,
}
#[derive(Clone, Copy)]
struct PAluRRLdr {
    aop: AluOp,
    ard: u8,
    arn: u8,
    arm: u8,
    rd: u8,
    base: u8,
    imm: i32,
}
#[derive(Clone, Copy)]
struct PAluRRStr {
    aop: AluOp,
    ard: u8,
    arn: u8,
    arm: u8,
    rs: u8,
    base: u8,
    imm: i32,
}
#[derive(Clone, Copy)]
struct PMovLdr {
    mrd: u8,
    mimm: i32,
    rd: u8,
    base: u8,
    imm: i32,
}
#[derive(Clone, Copy)]
struct PMovMov {
    rd0: u8,
    imm0: i32,
    rd1: u8,
    imm1: i32,
}
#[derive(Clone, Copy)]
struct PMovCmpR {
    mrd: u8,
    mimm: i32,
    rn: u8,
    rm: u8,
}
#[derive(Clone, Copy)]
struct PMovCsel {
    mrd: u8,
    mimm: i32,
    cond: Cond,
    rd: u8,
    rt: u8,
    rf: u8,
}
#[derive(Clone, Copy)]
struct PCselStr {
    cond: Cond,
    rd: u8,
    rt: u8,
    rf: u8,
    rs: u8,
    base: u8,
    imm: i32,
}
#[derive(Clone, Copy)]
struct PCmpRMov {
    rn: u8,
    rm: u8,
    mrd: u8,
    mimm: i32,
}
#[derive(Clone, Copy)]
struct PStrMov {
    rs: u8,
    base: u8,
    imm: i32,
    mrd: u8,
    mimm: i32,
}
#[derive(Clone, Copy)]
struct PStrMovR {
    rs: u8,
    sbase: u8,
    simm: i32,
    rd: u8,
    rm: u8,
}
#[derive(Clone, Copy)]
struct PMovRAluRI {
    rd: u8,
    rm: u8,
    aop: AluOp,
    ard: u8,
    arn: u8,
    aimm: i32,
}
#[derive(Clone, Copy)]
struct PMov {
    rd: u8,
    imm: i32,
}
#[derive(Clone, Copy)]
struct PCmpICb {
    rn: u8,
    imm: i32,
    cond: Cond,
    taken: u32,
    fallthrough: u32,
}
#[derive(Clone, Copy)]
struct PCmpRCb {
    rn: u8,
    rm: u8,
    cond: Cond,
    taken: u32,
    fallthrough: u32,
}
#[derive(Clone, Copy)]
struct PStrBr {
    rs: u8,
    base: u8,
    imm: i32,
    target: u32,
}

type Mem = [i32; MEM_WORDS];

/// Classify an invalid address exactly like the reference's
/// `check_addr` (alignment is checked first).
#[cold]
#[inline(never)]
fn mem_fault(addr: u32) -> MachineError {
    if !addr.is_multiple_of(4) {
        MachineError::Unaligned(addr)
    } else {
        MachineError::OutOfRange(addr)
    }
}

/// Engine-local load: one fused validity branch on the hot path, with
/// the precise trap kind re-derived in the cold branch. The mask keeps
/// the word index provably inside the power-of-two `Mem`, so no slice
/// bounds check survives (the mask is an identity for valid addresses).
#[inline(always)]
fn ld(mem: &Mem, addr: u32) -> Result<i32, MachineError> {
    if !addr.is_multiple_of(4) | (addr >= MEMORY_BYTES) {
        return Err(mem_fault(addr));
    }
    Ok(mem[(addr / 4) as usize & (MEM_WORDS - 1)])
}

/// Engine-local store; see [`ld`].
#[inline(always)]
fn st(mem: &mut Mem, addr: u32, value: i32) -> Result<(), MachineError> {
    if !addr.is_multiple_of(4) | (addr >= MEMORY_BYTES) {
        return Err(mem_fault(addr));
    }
    mem[(addr / 4) as usize & (MEM_WORDS - 1)] = value;
    Ok(())
}

// Straight-line superinstruction bodies, shared between the pair arms
// and the quad arms of the dispatch loop. All `#[inline(always)]`: each
// call site is a distinct jump-table arm and must stay call-free.
#[inline(always)]
fn x_str_ldr(p: &PStrLdr, regs: &mut [i32; 16], mem: &mut Mem) -> Result<(), MachineError> {
    let sa = (regs[p.sbase as usize & 15] as u32).wrapping_add(p.simm as u32);
    let v = regs[p.rs as usize & 15];
    st(mem, sa, v)?;
    let la = (regs[p.lbase as usize & 15] as u32).wrapping_add(p.limm as u32);
    // Spill-reload forwarding: the dominant store→load pairs re-read
    // the address just written, so the stored word short-circuits the
    // reload (a valid store to `sa` proves a load from `sa` yields it).
    regs[p.rd as usize & 15] = if la == sa { v } else { ld(mem, la)? };
    Ok(())
}
// Several bodies below forward a just-computed value straight into the
// next op when the payload's register indices coincide, instead of
// reading it back out of `regs`. The select is exact — it yields
// precisely what the array read would — but it takes the host's
// store-to-load forwarding latency off the dependency chain (the
// compiler cannot do this itself: the dynamic indices might alias).
#[inline(always)]
fn x_ldr_str(p: &PLdrStr, regs: &mut [i32; 16], mem: &mut Mem) -> Result<(), MachineError> {
    let addr = (regs[p.lbase as usize & 15] as u32).wrapping_add(p.limm as u32);
    let lv = ld(mem, addr)?;
    regs[p.rd as usize & 15] = lv;
    let base = if p.sbase & 15 == p.rd & 15 {
        lv
    } else {
        regs[p.sbase as usize & 15]
    };
    let sv = if p.rs & 15 == p.rd & 15 {
        lv
    } else {
        regs[p.rs as usize & 15]
    };
    let addr = (base as u32).wrapping_add(p.simm as u32);
    st(mem, addr, sv)
}
#[inline(always)]
fn x_ldr_ldr(p: &PLdrLdr, regs: &mut [i32; 16], mem: &Mem) -> Result<(), MachineError> {
    let addr = (regs[p.base0 as usize & 15] as u32).wrapping_add(p.imm0 as u32);
    let lv = ld(mem, addr)?;
    regs[p.rd0 as usize & 15] = lv;
    let base = if p.base1 & 15 == p.rd0 & 15 {
        lv
    } else {
        regs[p.base1 as usize & 15]
    };
    let addr = (base as u32).wrapping_add(p.imm1 as u32);
    regs[p.rd1 as usize & 15] = ld(mem, addr)?;
    Ok(())
}
#[inline(always)]
fn x_ldr_alu_ri(p: &PLdrAluRI, regs: &mut [i32; 16], mem: &Mem) -> Result<(), MachineError> {
    let addr = (regs[p.base as usize & 15] as u32).wrapping_add(p.imm as u32);
    let lv = ld(mem, addr)?;
    regs[p.rd as usize & 15] = lv;
    let a = if p.arn & 15 == p.rd & 15 {
        lv
    } else {
        regs[p.arn as usize & 15]
    };
    regs[p.ard as usize & 15] = p.aop.eval(a, p.aimm);
    Ok(())
}
#[inline(always)]
fn x_ldr_alu_rr(p: &PLdrAluRR, regs: &mut [i32; 16], mem: &Mem) -> Result<(), MachineError> {
    let addr = (regs[p.base as usize & 15] as u32).wrapping_add(p.imm as u32);
    let lv = ld(mem, addr)?;
    regs[p.rd as usize & 15] = lv;
    let a = if p.arn & 15 == p.rd & 15 {
        lv
    } else {
        regs[p.arn as usize & 15]
    };
    let b = if p.arm & 15 == p.rd & 15 {
        lv
    } else {
        regs[p.arm as usize & 15]
    };
    regs[p.ard as usize & 15] = p.aop.eval(a, b);
    Ok(())
}
#[inline(always)]
fn x_ldr_mov(p: &PLdrMov, regs: &mut [i32; 16], mem: &Mem) -> Result<(), MachineError> {
    let addr = (regs[p.base as usize & 15] as u32).wrapping_add(p.imm as u32);
    regs[p.rd as usize & 15] = ld(mem, addr)?;
    regs[p.mrd as usize & 15] = p.mimm;
    Ok(())
}
#[inline(always)]
fn x_ldr_cmp_i(
    p: &PLdrCmpI,
    regs: &mut [i32; 16],
    mem: &Mem,
    flags: &mut (i32, i32),
) -> Result<(), MachineError> {
    let addr = (regs[p.base as usize & 15] as u32).wrapping_add(p.imm as u32);
    regs[p.rd as usize & 15] = ld(mem, addr)?;
    *flags = (regs[p.crn as usize & 15], p.cimm);
    Ok(())
}
#[inline(always)]
fn x_alu_ri_ldr(p: &PAluRILdr, regs: &mut [i32; 16], mem: &Mem) -> Result<(), MachineError> {
    let av = p.aop.eval(regs[p.arn as usize & 15], p.aimm);
    regs[p.ard as usize & 15] = av;
    let base = if p.base & 15 == p.ard & 15 {
        av
    } else {
        regs[p.base as usize & 15]
    };
    let addr = (base as u32).wrapping_add(p.imm as u32);
    regs[p.rd as usize & 15] = ld(mem, addr)?;
    Ok(())
}
#[inline(always)]
fn x_alu_ri_str(p: &PAluRIStr, regs: &mut [i32; 16], mem: &mut Mem) -> Result<(), MachineError> {
    let av = p.aop.eval(regs[p.arn as usize & 15], p.aimm);
    regs[p.ard as usize & 15] = av;
    let base = if p.base & 15 == p.ard & 15 {
        av
    } else {
        regs[p.base as usize & 15]
    };
    let sv = if p.rs & 15 == p.ard & 15 {
        av
    } else {
        regs[p.rs as usize & 15]
    };
    let addr = (base as u32).wrapping_add(p.imm as u32);
    st(mem, addr, sv)
}
#[inline(always)]
fn x_alu_ri_alu_rr(p: &PAluRIAluRR, regs: &mut [i32; 16]) {
    let v0 = p.op0.eval(regs[p.rn0 as usize & 15], p.imm0);
    regs[p.rd0 as usize & 15] = v0;
    let a = if p.rn1 & 15 == p.rd0 & 15 {
        v0
    } else {
        regs[p.rn1 as usize & 15]
    };
    let b = if p.rm1 & 15 == p.rd0 & 15 {
        v0
    } else {
        regs[p.rm1 as usize & 15]
    };
    regs[p.rd1 as usize & 15] = p.op1.eval(a, b);
}
#[inline(always)]
fn x_alu_rr_ldr(p: &PAluRRLdr, regs: &mut [i32; 16], mem: &Mem) -> Result<(), MachineError> {
    let av = p
        .aop
        .eval(regs[p.arn as usize & 15], regs[p.arm as usize & 15]);
    regs[p.ard as usize & 15] = av;
    let base = if p.base & 15 == p.ard & 15 {
        av
    } else {
        regs[p.base as usize & 15]
    };
    let addr = (base as u32).wrapping_add(p.imm as u32);
    regs[p.rd as usize & 15] = ld(mem, addr)?;
    Ok(())
}
#[inline(always)]
fn x_alu_rr_str(p: &PAluRRStr, regs: &mut [i32; 16], mem: &mut Mem) -> Result<(), MachineError> {
    let av = p
        .aop
        .eval(regs[p.arn as usize & 15], regs[p.arm as usize & 15]);
    regs[p.ard as usize & 15] = av;
    let base = if p.base & 15 == p.ard & 15 {
        av
    } else {
        regs[p.base as usize & 15]
    };
    let sv = if p.rs & 15 == p.ard & 15 {
        av
    } else {
        regs[p.rs as usize & 15]
    };
    let addr = (base as u32).wrapping_add(p.imm as u32);
    st(mem, addr, sv)
}
#[inline(always)]
fn x_mov_ldr(p: &PMovLdr, regs: &mut [i32; 16], mem: &Mem) -> Result<(), MachineError> {
    regs[p.mrd as usize & 15] = p.mimm;
    let base = if p.base & 15 == p.mrd & 15 {
        p.mimm
    } else {
        regs[p.base as usize & 15]
    };
    let addr = (base as u32).wrapping_add(p.imm as u32);
    regs[p.rd as usize & 15] = ld(mem, addr)?;
    Ok(())
}
#[inline(always)]
fn x_mov_mov(p: &PMovMov, regs: &mut [i32; 16]) {
    regs[p.rd0 as usize & 15] = p.imm0;
    regs[p.rd1 as usize & 15] = p.imm1;
}
#[inline(always)]
fn x_mov_cmp_r(p: &PMovCmpR, regs: &mut [i32; 16], flags: &mut (i32, i32)) {
    regs[p.mrd as usize & 15] = p.mimm;
    *flags = (regs[p.rn as usize & 15], regs[p.rm as usize & 15]);
}
#[inline(always)]
fn x_mov_csel(p: &PMovCsel, regs: &mut [i32; 16], flags: &(i32, i32)) {
    regs[p.mrd as usize & 15] = p.mimm;
    let (a, b) = *flags;
    regs[p.rd as usize & 15] = if p.cond.holds(a, b) {
        regs[p.rt as usize & 15]
    } else {
        regs[p.rf as usize & 15]
    };
}
#[inline(always)]
fn x_csel_str(
    p: &PCselStr,
    regs: &mut [i32; 16],
    mem: &mut Mem,
    flags: &(i32, i32),
) -> Result<(), MachineError> {
    let (a, b) = *flags;
    regs[p.rd as usize & 15] = if p.cond.holds(a, b) {
        regs[p.rt as usize & 15]
    } else {
        regs[p.rf as usize & 15]
    };
    let addr = (regs[p.base as usize & 15] as u32).wrapping_add(p.imm as u32);
    st(mem, addr, regs[p.rs as usize & 15])
}
#[inline(always)]
fn x_cmp_r_mov(p: &PCmpRMov, regs: &mut [i32; 16], flags: &mut (i32, i32)) {
    *flags = (regs[p.rn as usize & 15], regs[p.rm as usize & 15]);
    regs[p.mrd as usize & 15] = p.mimm;
}
#[inline(always)]
fn x_str_mov(p: &PStrMov, regs: &mut [i32; 16], mem: &mut Mem) -> Result<(), MachineError> {
    let addr = (regs[p.base as usize & 15] as u32).wrapping_add(p.imm as u32);
    st(mem, addr, regs[p.rs as usize & 15])?;
    regs[p.mrd as usize & 15] = p.mimm;
    Ok(())
}
#[inline(always)]
fn x_str_mov_r(p: &PStrMovR, regs: &mut [i32; 16], mem: &mut Mem) -> Result<(), MachineError> {
    let addr = (regs[p.sbase as usize & 15] as u32).wrapping_add(p.simm as u32);
    st(mem, addr, regs[p.rs as usize & 15])?;
    regs[p.rd as usize & 15] = regs[p.rm as usize & 15];
    Ok(())
}
#[inline(always)]
fn x_mov_r_alu_ri(p: &PMovRAluRI, regs: &mut [i32; 16]) {
    regs[p.rd as usize & 15] = regs[p.rm as usize & 15];
    regs[p.ard as usize & 15] = p.aop.eval(regs[p.arn as usize & 15], p.aimm);
}

/// Slots covered by one fused unit (1 for base ops).
fn hot_width(op: &HotOp) -> usize {
    match op {
        HotOp::AluRR { .. }
        | HotOp::AluRI { .. }
        | HotOp::MovR { .. }
        | HotOp::MovI { .. }
        | HotOp::CmpR { .. }
        | HotOp::CmpI { .. }
        | HotOp::Csel { .. }
        | HotOp::LdrR { .. }
        | HotOp::LdrI { .. }
        | HotOp::StrR { .. }
        | HotOp::StrI { .. }
        | HotOp::Push { .. }
        | HotOp::Pop { .. }
        | HotOp::Call { .. }
        | HotOp::In { .. }
        | HotOp::Out { .. }
        | HotOp::Nop
        | HotOp::Branch { .. }
        | HotOp::CondBranch { .. }
        | HotOp::Ret
        | HotOp::Halt => 1,
        HotOp::StrILdrI(_)
        | HotOp::LdrIStrI(_)
        | HotOp::LdrILdrI(_)
        | HotOp::LdrIAluRI(_)
        | HotOp::LdrIAluRR(_)
        | HotOp::LdrIMovI(_)
        | HotOp::LdrICmpI(_)
        | HotOp::AluRILdrI(_)
        | HotOp::AluRIStrI(_)
        | HotOp::AluRIAluRR(_)
        | HotOp::AluRRLdrI(_)
        | HotOp::AluRRStrI(_)
        | HotOp::MovILdrI(_)
        | HotOp::MovIMovI(_)
        | HotOp::MovICmpR(_)
        | HotOp::MovICsel(_)
        | HotOp::CselStrI(_)
        | HotOp::CmpRMovI(_)
        | HotOp::StrIMovI(_)
        | HotOp::StrIMovR(_)
        | HotOp::MovRAluRI(_)
        | HotOp::CmpICondBranch(_)
        | HotOp::CmpRCondBranch(_)
        | HotOp::StrIBranch(_) => 2,
        HotOp::TLdrStrBr(..) => 3,
        HotOp::QLdrMovCmpRMov(..)
        | HotOp::QCmpRMovMovCsel(..)
        | HotOp::QMovCselStrLdr(..)
        | HotOp::QStrLdrCmpICb(..)
        | HotOp::QLdrAluRIStrLdr(..)
        | HotOp::QAluRIAluRRLdrStr(..)
        | HotOp::QMovLdrAluRIAluRR(..)
        | HotOp::QStrLdrStrBr(..)
        | HotOp::QStrLdrAluRIStr(..)
        | HotOp::QLdrMovAluRRStr(..)
        | HotOp::QAluRRStrLdrStr(..)
        | HotOp::QAluRRStrLdrMov(..)
        | HotOp::QAluRRStrLdrAluRI(..)
        | HotOp::QLdrStrLdrAluRI(..)
        | HotOp::QAluRILdrAluRIAluRR(..)
        | HotOp::QAluRRLdrStrLdr(..)
        | HotOp::QLdrLdrAluRRStr(..)
        | HotOp::QLdrStrLdrLdr(..)
        | HotOp::QStrLdrLdrAluRR(..) => 4,
        HotOp::WLdrAluRIStrLdrMov(..) | HotOp::WAluRRStrLdrStrBr(..) => 5,
        HotOp::SLdrAluRIStrLdrStrBr(..)
        | HotOp::SMovCselStrLdrCmpICb(..)
        | HotOp::SAluRRStrLdrAluRIStrMovR(..)
        | HotOp::SLdrAluRIStrLdrAluRIStr(..)
        | HotOp::SLdrAluRRStrLdrAluRIStr(..)
        | HotOp::SLdrAluRIAluRRLdrStrLdr(..)
        | HotOp::SMovLdrAluRIAluRRLdrStr(..)
        | HotOp::SAluRILdrAluRIAluRRLdrStr(..) => 6,
        HotOp::SLdrMovAluRRStrLdrStrBr(..) => 7,
        HotOp::OLdrMovCmpRMovCselStrLdr(..)
        | HotOp::OLdrMovAluRRStrLdrMovCmpRMov(..)
        | HotOp::OLdrStrLdrAluRIStrLdrStrBr(..)
        | HotOp::OMovLdrAluRIAluRRLdrStrLdrLdr(..)
        | HotOp::OLdrStrLdrLdrAluRRStrLdrAluRI(..)
        | HotOp::OMovLdrAluRIAluRRLdrStrLdrAluRI(..)
        | HotOp::OLdrLdrAluRRStrMovLdrAluRIAluRR(..)
        | HotOp::OCmpRMovMovCselStrLdrCmpICb(..) => 8,
        HotOp::DLdrMovCmpRMovCselStrLdrCmpICb(..)
        | HotOp::XLdrAluRIStrLdrMovAluRRStrLdrStrBr(..) => 10,
        HotOp::XLdrAluRIStrLdrAluRIStrLdrMovAluRRStrLdrStrBr(..) => 13,
    }
}

/// Second fusion round: merge two adjacent fused pairs into a quad (or
/// a pair plus a trailing `Branch` into a triple) when the combination
/// is on the measured hot-chain menu.
fn try_fuse2(a: &HotOp, b: &HotOp) -> Option<HotOp> {
    use HotOp as H;
    Some(match (*a, *b) {
        (H::LdrIMovI(x), H::CmpRMovI(y)) => H::QLdrMovCmpRMov(x, y),
        (H::CmpRMovI(x), H::MovICsel(y)) => H::QCmpRMovMovCsel(x, y),
        (H::MovICsel(x), H::StrILdrI(y)) => H::QMovCselStrLdr(x, y),
        (H::StrILdrI(x), H::CmpICondBranch(y)) => H::QStrLdrCmpICb(x, y),
        (H::LdrIAluRI(x), H::StrILdrI(y)) => H::QLdrAluRIStrLdr(x, y),
        (H::AluRIAluRR(x), H::LdrIStrI(y)) => H::QAluRIAluRRLdrStr(x, y),
        (H::MovILdrI(x), H::AluRIAluRR(y)) => H::QMovLdrAluRIAluRR(x, y),
        (H::StrILdrI(x), H::StrIBranch(y)) => H::QStrLdrStrBr(x, y),
        (H::StrILdrI(x), H::AluRIStrI(y)) => H::QStrLdrAluRIStr(x, y),
        (H::LdrIMovI(x), H::AluRRStrI(y)) => H::QLdrMovAluRRStr(x, y),
        (H::AluRRStrI(x), H::LdrIStrI(y)) => H::QAluRRStrLdrStr(x, y),
        (H::AluRRStrI(x), H::LdrIMovI(y)) => H::QAluRRStrLdrMov(x, y),
        (H::AluRRStrI(x), H::LdrIAluRI(y)) => H::QAluRRStrLdrAluRI(x, y),
        (H::LdrIStrI(x), H::LdrIAluRI(y)) => H::QLdrStrLdrAluRI(x, y),
        (H::AluRILdrI(x), H::AluRIAluRR(y)) => H::QAluRILdrAluRIAluRR(x, y),
        (H::AluRRLdrI(x), H::StrILdrI(y)) => H::QAluRRLdrStrLdr(x, y),
        (H::LdrILdrI(x), H::AluRRStrI(y)) => H::QLdrLdrAluRRStr(x, y),
        (H::LdrIStrI(x), H::LdrILdrI(y)) => H::QLdrStrLdrLdr(x, y),
        (H::LdrIStrI(x), H::Branch { target }) => H::TLdrStrBr(x, target),
        // ---- mega chains (quad + quad / quad + fused tail) ----
        (H::QLdrMovCmpRMov(x, y), H::QMovCselStrLdr(z, w)) => {
            H::OLdrMovCmpRMovCselStrLdr(x, y, z, w)
        }
        (H::OLdrMovCmpRMovCselStrLdr(x, y, z, w), H::CmpICondBranch(e)) => {
            H::DLdrMovCmpRMovCselStrLdrCmpICb(x, y, z, w, e)
        }
        (H::QLdrAluRIStrLdr(x, y), H::StrIBranch(e)) => H::SLdrAluRIStrLdrStrBr(x, y, e),
        (H::QLdrMovAluRRStr(x, y), H::TLdrStrBr(z, t)) => H::SLdrMovAluRRStrLdrStrBr(x, y, z, t),
        (H::QLdrMovAluRRStr(x, y), H::QLdrMovCmpRMov(z, w)) => {
            H::OLdrMovAluRRStrLdrMovCmpRMov(x, y, z, w)
        }
        (H::QMovCselStrLdr(x, y), H::CmpICondBranch(e)) => H::SMovCselStrLdrCmpICb(x, y, e),
        (H::QLdrStrLdrAluRI(x, y), H::QStrLdrStrBr(z, e)) => {
            H::OLdrStrLdrAluRIStrLdrStrBr(x, y, z, e)
        }
        (H::QMovLdrAluRIAluRR(x, y), H::QLdrStrLdrLdr(z, w)) => {
            H::OMovLdrAluRIAluRRLdrStrLdrLdr(x, y, z, w)
        }
        (H::QLdrStrLdrLdr(x, y), H::QAluRRStrLdrAluRI(z, w)) => {
            H::OLdrStrLdrLdrAluRRStrLdrAluRI(x, y, z, w)
        }
        (H::QAluRRStrLdrAluRI(x, y), H::StrIMovR(z)) => H::SAluRRStrLdrAluRIStrMovR(x, y, z),
        (H::StrILdrI(x), H::LdrIAluRR(y)) => H::QStrLdrLdrAluRR(x, y),
        (H::QLdrAluRIStrLdr(x, y), H::MovI { rd, imm }) => {
            H::WLdrAluRIStrLdrMov(x, y, PMov { rd, imm })
        }
        (H::QAluRRStrLdrStr(x, y), H::Branch { target }) => H::WAluRRStrLdrStrBr(x, y, target),
        (H::QLdrAluRIStrLdr(x, y), H::AluRIStrI(z)) => H::SLdrAluRIStrLdrAluRIStr(x, y, z),
        (H::LdrIAluRR(x), H::QStrLdrAluRIStr(y, z)) => H::SLdrAluRRStrLdrAluRIStr(x, y, z),
        (H::LdrIAluRI(x), H::QAluRRLdrStrLdr(y, z)) => H::SLdrAluRIAluRRLdrStrLdr(x, y, z),
        (H::QMovLdrAluRIAluRR(x, y), H::LdrIStrI(z)) => H::SMovLdrAluRIAluRRLdrStr(x, y, z),
        (H::QAluRILdrAluRIAluRR(x, y), H::LdrIStrI(z)) => H::SAluRILdrAluRIAluRRLdrStr(x, y, z),
        (H::QMovLdrAluRIAluRR(x, y), H::QLdrStrLdrAluRI(z, w)) => {
            H::OMovLdrAluRIAluRRLdrStrLdrAluRI(x, y, z, w)
        }
        (H::QLdrLdrAluRRStr(x, y), H::QMovLdrAluRIAluRR(z, w)) => {
            H::OLdrLdrAluRRStrMovLdrAluRIAluRR(x, y, z, w)
        }
        (H::QCmpRMovMovCsel(x, y), H::QStrLdrCmpICb(z, e)) => {
            H::OCmpRMovMovCselStrLdrCmpICb(x, y, z, e)
        }
        (H::WLdrAluRIStrLdrMov(x, y, z), H::WAluRRStrLdrStrBr(u, v, t)) => {
            H::XLdrAluRIStrLdrMovAluRRStrLdrStrBr(x, y, z, u, v, t)
        }
        (H::SLdrAluRIStrLdrAluRIStr(x, y, z), H::SLdrMovAluRRStrLdrStrBr(u, v, w, t)) => {
            H::XLdrAluRIStrLdrAluRIStrLdrMovAluRRStrLdrStrBr(x, y, z, u, v, w, t)
        }
        _ => return None,
    })
}

/// Lower one base op to its un-fused [`HotOp`] form.
fn hot_base(op: &DecodedOp) -> HotOp {
    match *op {
        DecodedOp::AluRR { op, rd, rn, rm } => HotOp::AluRR { op, rd, rn, rm },
        DecodedOp::AluRI { op, rd, rn, imm } => HotOp::AluRI { op, rd, rn, imm },
        DecodedOp::MovR { rd, rm } => HotOp::MovR { rd, rm },
        DecodedOp::MovI { rd, imm } | DecodedOp::MovI32 { rd, imm } => HotOp::MovI { rd, imm },
        DecodedOp::CmpR { rn, rm } => HotOp::CmpR { rn, rm },
        DecodedOp::CmpI { rn, imm } => HotOp::CmpI { rn, imm },
        DecodedOp::Csel { cond, rd, rt, rf } => HotOp::Csel { cond, rd, rt, rf },
        DecodedOp::LdrR { rd, base, roff } => HotOp::LdrR { rd, base, roff },
        DecodedOp::LdrI { rd, base, imm } => HotOp::LdrI { rd, base, imm },
        DecodedOp::StrR { rs, base, roff } => HotOp::StrR { rs, base, roff },
        DecodedOp::StrI { rs, base, imm } => HotOp::StrI { rs, base, imm },
        DecodedOp::Push { list } => HotOp::Push { list },
        DecodedOp::Pop { list } => HotOp::Pop { list },
        DecodedOp::Call { target } => HotOp::Call { target },
        DecodedOp::In { rd, port } => HotOp::In { rd, port },
        DecodedOp::Out { rs, port } => HotOp::Out { rs, port },
        DecodedOp::Nop => HotOp::Nop,
        DecodedOp::Branch { target } => HotOp::Branch { target },
        DecodedOp::CondBranch {
            cond,
            taken,
            fallthrough,
        } => HotOp::CondBranch {
            cond,
            taken,
            fallthrough,
        },
        DecodedOp::Ret => HotOp::Ret,
        DecodedOp::Halt => HotOp::Halt,
    }
}

/// Fuse `a; b` into one superinstruction if the pair is on the menu.
/// `cmp_reserved` blocks straight pairs that would absorb a compare
/// feeding the conditional branch right behind it — the
/// compare+branch fusion is worth strictly more.
fn try_fuse(a: &DecodedOp, b: &DecodedOp, cmp_reserved: bool) -> Option<HotOp> {
    use DecodedOp as D;
    Some(match (*a, *b) {
        (
            D::CmpI { rn, imm },
            D::CondBranch {
                cond,
                taken,
                fallthrough,
            },
        ) => HotOp::CmpICondBranch(PCmpICb {
            rn,
            imm,
            cond,
            taken,
            fallthrough,
        }),
        (
            D::CmpR { rn, rm },
            D::CondBranch {
                cond,
                taken,
                fallthrough,
            },
        ) => HotOp::CmpRCondBranch(PCmpRCb {
            rn,
            rm,
            cond,
            taken,
            fallthrough,
        }),
        (D::StrI { rs, base, imm }, D::Branch { target }) => HotOp::StrIBranch(PStrBr {
            rs,
            base,
            imm,
            target,
        }),
        _ if cmp_reserved => return None,
        (
            D::StrI {
                rs,
                base: sbase,
                imm: simm,
            },
            D::LdrI { rd, base, imm },
        ) => HotOp::StrILdrI(PStrLdr {
            rs,
            sbase,
            simm,
            rd,
            lbase: base,
            limm: imm,
        }),
        (
            D::LdrI {
                rd,
                base: lbase,
                imm: limm,
            },
            D::StrI { rs, base, imm },
        ) => HotOp::LdrIStrI(PLdrStr {
            rd,
            lbase,
            limm,
            rs,
            sbase: base,
            simm: imm,
        }),
        (
            D::LdrI {
                rd: rd0,
                base: base0,
                imm: imm0,
            },
            D::LdrI {
                rd: rd1,
                base: base1,
                imm: imm1,
            },
        ) => HotOp::LdrILdrI(PLdrLdr {
            rd0,
            base0,
            imm0,
            rd1,
            base1,
            imm1,
        }),
        (
            D::LdrI { rd, base, imm },
            D::AluRI {
                op: aop,
                rd: ard,
                rn: arn,
                imm: aimm,
            },
        ) => HotOp::LdrIAluRI(PLdrAluRI {
            rd,
            base,
            imm,
            aop,
            ard,
            arn,
            aimm,
        }),
        (
            D::LdrI { rd, base, imm },
            D::AluRR {
                op: aop,
                rd: ard,
                rn: arn,
                rm: arm,
            },
        ) => HotOp::LdrIAluRR(PLdrAluRR {
            rd,
            base,
            imm,
            aop,
            ard,
            arn,
            arm,
        }),
        (
            D::LdrI { rd, base, imm },
            D::MovI { rd: mrd, imm: mimm } | D::MovI32 { rd: mrd, imm: mimm },
        ) => HotOp::LdrIMovI(PLdrMov {
            rd,
            base,
            imm,
            mrd,
            mimm,
        }),
        (D::LdrI { rd, base, imm }, D::CmpI { rn: crn, imm: cimm }) => HotOp::LdrICmpI(PLdrCmpI {
            rd,
            base,
            imm,
            crn,
            cimm,
        }),
        (
            D::AluRI {
                op: aop,
                rd: ard,
                rn: arn,
                imm: aimm,
            },
            D::LdrI { rd, base, imm },
        ) => HotOp::AluRILdrI(PAluRILdr {
            aop,
            ard,
            arn,
            aimm,
            rd,
            base,
            imm,
        }),
        (
            D::AluRI {
                op: aop,
                rd: ard,
                rn: arn,
                imm: aimm,
            },
            D::StrI { rs, base, imm },
        ) => HotOp::AluRIStrI(PAluRIStr {
            aop,
            ard,
            arn,
            aimm,
            rs,
            base,
            imm,
        }),
        (
            D::AluRI {
                op: op0,
                rd: rd0,
                rn: rn0,
                imm: imm0,
            },
            D::AluRR {
                op: op1,
                rd: rd1,
                rn: rn1,
                rm: rm1,
            },
        ) => HotOp::AluRIAluRR(PAluRIAluRR {
            op0,
            rd0,
            rn0,
            imm0,
            op1,
            rd1,
            rn1,
            rm1,
        }),
        (
            D::AluRR {
                op: aop,
                rd: ard,
                rn: arn,
                rm: arm,
            },
            D::LdrI { rd, base, imm },
        ) => HotOp::AluRRLdrI(PAluRRLdr {
            aop,
            ard,
            arn,
            arm,
            rd,
            base,
            imm,
        }),
        (
            D::AluRR {
                op: aop,
                rd: ard,
                rn: arn,
                rm: arm,
            },
            D::StrI { rs, base, imm },
        ) => HotOp::AluRRStrI(PAluRRStr {
            aop,
            ard,
            arn,
            arm,
            rs,
            base,
            imm,
        }),
        (
            D::MovI { rd: mrd, imm: mimm } | D::MovI32 { rd: mrd, imm: mimm },
            D::LdrI { rd, base, imm },
        ) => HotOp::MovILdrI(PMovLdr {
            mrd,
            mimm,
            rd,
            base,
            imm,
        }),
        (
            D::MovI { rd: rd0, imm: imm0 } | D::MovI32 { rd: rd0, imm: imm0 },
            D::MovI { rd: rd1, imm: imm1 } | D::MovI32 { rd: rd1, imm: imm1 },
        ) => HotOp::MovIMovI(PMovMov {
            rd0,
            imm0,
            rd1,
            imm1,
        }),
        (D::MovI { rd: mrd, imm: mimm } | D::MovI32 { rd: mrd, imm: mimm }, D::CmpR { rn, rm }) => {
            HotOp::MovICmpR(PMovCmpR { mrd, mimm, rn, rm })
        }
        (
            D::MovI { rd: mrd, imm: mimm } | D::MovI32 { rd: mrd, imm: mimm },
            D::Csel { cond, rd, rt, rf },
        ) => HotOp::MovICsel(PMovCsel {
            mrd,
            mimm,
            cond,
            rd,
            rt,
            rf,
        }),
        (D::Csel { cond, rd, rt, rf }, D::StrI { rs, base, imm }) => HotOp::CselStrI(PCselStr {
            cond,
            rd,
            rt,
            rf,
            rs,
            base,
            imm,
        }),
        (D::CmpR { rn, rm }, D::MovI { rd: mrd, imm: mimm } | D::MovI32 { rd: mrd, imm: mimm }) => {
            HotOp::CmpRMovI(PCmpRMov { rn, rm, mrd, mimm })
        }
        (
            D::StrI { rs, base, imm },
            D::MovI { rd: mrd, imm: mimm } | D::MovI32 { rd: mrd, imm: mimm },
        ) => HotOp::StrIMovI(PStrMov {
            rs,
            base,
            imm,
            mrd,
            mimm,
        }),
        (
            D::StrI {
                rs,
                base: sbase,
                imm: simm,
            },
            D::MovR { rd, rm },
        ) => HotOp::StrIMovR(PStrMovR {
            rs,
            sbase,
            simm,
            rd,
            rm,
        }),
        (
            D::MovR { rd, rm },
            D::AluRI {
                op: aop,
                rd: ard,
                rn: arn,
                imm: aimm,
            },
        ) => HotOp::MovRAluRI(PMovRAluRI {
            rd,
            rm,
            aop,
            ard,
            arn,
            aimm,
        }),
        _ => return None,
    })
}

/// Greedy left-to-right pair tiling over the flat op array, followed by
/// a second round that merges adjacent fused pairs into quads. A unit is
/// only formed when its continuation slot is not a block start (no
/// control transfer can land mid-unit; see [`HotOp`]).
fn fuse_ops(ops: &[DecodedOp], is_block_start: &[bool]) -> Vec<HotOp> {
    let mut hot: Vec<HotOp> = ops.iter().map(hot_base).collect();
    // Round 1: adjacent base-op pairs.
    let mut i = 0;
    while i + 1 < ops.len() {
        if is_block_start[i + 1] {
            i += 1;
            continue;
        }
        // Is ops[i + 1] a compare that feeds the conditional branch at
        // ops[i + 2]? Then leave it for the compare+branch fusion.
        let cmp_reserved = matches!(ops[i + 1], DecodedOp::CmpI { .. } | DecodedOp::CmpR { .. })
            && i + 2 < ops.len()
            && !is_block_start[i + 2]
            && matches!(ops[i + 2], DecodedOp::CondBranch { .. });
        match try_fuse(&ops[i], &ops[i + 1], cmp_reserved) {
            Some(f) => {
                hot[i] = f;
                i += 2;
            }
            None => i += 1,
        }
    }
    // Rounds 2+: walking by unit widths reproduces the previous round's
    // tiling; a fused unit absorbs the next one when the combination is
    // on the menu and no entry point lands on the seam. Chains grow by
    // one menu step per round, so iterate to a fixpoint.
    loop {
        let mut changed = false;
        let mut i = 0;
        while i < hot.len() {
            let w = hot_width(&hot[i]);
            let j = i + w;
            if w >= 2 && j < hot.len() && !is_block_start[j] {
                if let Some(q) = try_fuse2(&hot[i], &hot[j]) {
                    let qw = hot_width(&q);
                    hot[i] = q;
                    i += qw;
                    changed = true;
                    continue;
                }
            }
            i += w;
        }
        if !changed {
            break;
        }
    }
    hot
}

/// Aggregated accounting for one *run* — the maximal straight-line op
/// sequence ending at a control op (`Branch`, `CondBranch`, `Call`,
/// `Ret`, `Halt`). Branch targets only ever land on block starts and a
/// `Ret` resumes right after its `Call`, so control flow can only enter
/// a run at its first op; once entered, every op of the run executes
/// (unless it traps, in which case no accounting is observable anyway).
/// The `*_nt` variants differ only when the run ends in a `CondBranch`.
#[derive(Clone, Copy, Default)]
struct RunAgg {
    cyc: u64,
    cyc_nt: u64,
    /// Run energy in exact integer picojoules (taken outcome).
    en: u64,
    en_nt: u64,
    insns: u32,
    counts: [u32; ENERGY_CLASS_COUNT],
}

/// Tables for the exact-integer fast path, built only when every energy
/// increment of the program is a nonnegative integer-valued f64. Under
/// that condition each f64 addition the reference performs is *exact*
/// (integers below 2^53), so the whole accumulation is associative and
/// can be charged per run in integer arithmetic, bit-identically.
struct ExactTables {
    /// Indexed by control-op position: the aggregate of the run that
    /// ends there. Slots of non-control ops are unused.
    aggs: Vec<RunAgg>,
    /// Indexed by run-entry position: cycles charged by the run *before*
    /// its final op — the reference's last (and, by monotonicity,
    /// binding) budget checkpoint inside the run. If
    /// `cycles + pre[entry] > max_cycles` the reference is guaranteed to
    /// trap inside this run, and the engine drops to the per-insn
    /// careful loop to reproduce the trap point and device traffic
    /// exactly.
    pre: Vec<u64>,
    /// Control-op positions — the only meaningful `aggs` slots. The
    /// engine defers everything but the cycle count to per-site run
    /// counters and folds `hits × aggregate` over this list once per
    /// call (integer multiplication is exactly repeated addition, so
    /// the fold is bit-identical to charging each run as it retires).
    sites: Vec<u32>,
    /// `overhead(Branch, class)` as integers: the first charged insn of
    /// a run has no predecessor, which differs from its static baking by
    /// exactly this amount — subtracted up front (wrapping; the sum is
    /// provably renonnegative after the first run's charge).
    ovh_branch_u: [u64; ENERGY_CLASS_COUNT],
    /// Fast path is valid while `max_cycles` stays at or below this
    /// (keeps every partial energy sum exactly representable).
    max_budget: u64,
}

/// A program lowered for the pre-decoded engine: flat ops zipped with
/// their cost constants and the initial data image.
pub struct DecodedProgram {
    image: DecodedImage,
    /// The fast loop's opcode stream: base ops with the dominant
    /// adjacent pairs fused into superinstructions (pc-stable, see
    /// [`HotOp`]). Same indexing as [`DecodedImage::ops`].
    hot: Vec<HotOp>,
    /// Steps with energy baked against each op's static predecessor
    /// class — valid for every charge except the run's very first.
    steps: Vec<Step>,
    /// The same ops with energy baked against *no* predecessor (the
    /// reference's `prev = None` case). The hot loop fetches exactly one
    /// step from this table — the first — then swaps to [`Self::steps`].
    steps_first: Vec<Step>,
    /// Run-aggregated accounting (`None` when the energy model has
    /// non-integer increments; the per-insn loop then runs throughout).
    exact: Option<ExactTables>,
    layout: DataLayout,
    /// Initial global images as (word base, words).
    globals: Vec<(usize, Vec<i32>)>,
}

impl DecodedProgram {
    /// Lower a program with PG32 cost models.
    ///
    /// # Errors
    /// Returns the program's own validation error text if it is
    /// structurally invalid.
    pub fn new(program: &Program) -> Result<DecodedProgram, String> {
        DecodedProgram::with_models(program, &CycleModel::pg32(), &GroundTruthEnergy::pg32())
    }

    /// Lower a program with explicit cost models.
    ///
    /// # Errors
    /// Returns the program's own validation error text if it is
    /// structurally invalid.
    pub fn with_models(
        program: &Program,
        cycle_model: &CycleModel,
        energy_model: &GroundTruthEnergy,
    ) -> Result<DecodedProgram, String> {
        let image = decode_program(program)?;
        // Every op reachable only by falling through from its textual
        // predecessor inherits that predecessor's class; every op that
        // starts a block is reached by a control transfer, and all
        // transfer sources charge as `Branch` (see [`OpCost`]).
        let mut is_block_start = vec![false; image.ops.len()];
        for f in &image.functions {
            is_block_start[f.entry as usize] = true;
        }
        for op in &image.ops {
            match op {
                DecodedOp::Branch { target } | DecodedOp::Call { target } => {
                    is_block_start[*target as usize] = true;
                }
                DecodedOp::CondBranch {
                    taken, fallthrough, ..
                } => {
                    is_block_start[*taken as usize] = true;
                    is_block_start[*fallthrough as usize] = true;
                }
                _ => {}
            }
        }
        let static_prev = |i: usize| {
            if i == 0 || is_block_start[i] {
                EnergyClass::Branch
            } else {
                op_class(&image.ops[i - 1])
            }
        };
        let bake = |prev_of: &dyn Fn(usize) -> Option<EnergyClass>| {
            image
                .ops
                .iter()
                .enumerate()
                .map(|(i, op)| Step {
                    op: *op,
                    cost: op_cost(op, &image, cycle_model, energy_model, prev_of(i)),
                })
                .collect::<Vec<Step>>()
        };
        let steps = bake(&|i| Some(static_prev(i)));
        let steps_first = bake(&|_| None);
        let mut hot = fuse_ops(&image.ops, &is_block_start);
        // Pad to a power of two: the dispatch fetch indexes with
        // `pc & (hot.len() - 1)`, which the compiler can prove in
        // bounds, so the per-dispatch bounds check disappears. Every
        // reachable pc is below the real length, where the mask is an
        // identity; the padding slots are unreachable.
        hot.resize(hot.len().next_power_of_two(), HotOp::Halt);
        let exact = build_exact_tables(&image, &steps, &steps_first, energy_model);
        let layout = DataLayout::of_program(program);
        let globals = program
            .globals
            .iter()
            .map(|(name, words)| {
                let base = layout.address(name).expect("layout covers globals") / 4;
                (base as usize, words.clone())
            })
            .collect();
        Ok(DecodedProgram {
            image,
            hot,
            steps,
            steps_first,
            exact,
            layout,
            globals,
        })
    }

    /// The decoded instruction image.
    pub fn image(&self) -> &DecodedImage {
        &self.image
    }

    /// The layout used for globals (shared with the code generator).
    pub fn layout(&self) -> &DataLayout {
        &self.layout
    }

    /// A fresh engine over this program (the program can be shared by
    /// many engines — one per worker thread in a batch).
    pub fn engine(&self) -> DecodedEngine<'_> {
        DecodedEngine::new(self)
    }
}

/// Mutable machine state over a shared [`DecodedProgram`].
///
/// Mirrors [`crate::machine::Machine`]'s contract exactly: globals
/// persist across [`DecodedEngine::call`]s, [`DecodedEngine::reset_data`]
/// restores the initial image, state is unspecified after a trap.
pub struct DecodedEngine<'p> {
    program: &'p DecodedProgram,
    mem: Box<[i32; MEM_WORDS]>,
    regs: [i32; 16],
    flags: (i32, i32),
    max_cycles: u64,
    /// Per-site run counters (taken / not-taken outcome), indexed by
    /// control-op position. The fast loop only increments these; they
    /// are folded into the accounting totals once per call.
    hits_t: Vec<u64>,
    hits_nt: Vec<u64>,
}

impl<'p> DecodedEngine<'p> {
    /// A fresh engine with the initial data image and the reference
    /// 50 M cycle budget.
    pub fn new(program: &'p DecodedProgram) -> DecodedEngine<'p> {
        let mut engine = DecodedEngine {
            program,
            mem: zeroed_mem(),
            regs: [0; 16],
            flags: (0, 0),
            max_cycles: 50_000_000,
            hits_t: vec![0; program.hot.len()],
            hits_nt: vec![0; program.hot.len()],
        };
        engine.reset_data();
        engine
    }

    /// Change the cycle budget per call.
    pub fn set_max_cycles(&mut self, max_cycles: u64) {
        self.max_cycles = max_cycles;
    }

    /// Restore the initial global-data image and clear the rest of memory.
    pub fn reset_data(&mut self) {
        self.mem.fill(0);
        for (base, words) in &self.program.globals {
            self.mem[*base..*base + words.len()].copy_from_slice(words);
        }
    }

    /// Read a global word back after a run (for assertions in tests).
    pub fn read_global(&self, name: &str, index: usize) -> Option<i32> {
        let base = self.program.layout.address(name)? / 4;
        self.mem.get(base as usize + index).copied()
    }

    /// Snapshot of the whole global data segment, in address order —
    /// the same observable as [`crate::machine::Machine::data_image`].
    pub fn data_image(&self) -> Vec<i32> {
        let lo = (DATA_BASE / 4) as usize;
        let hi = (self.program.layout.data_end() / 4) as usize;
        self.mem[lo..hi].to_vec()
    }

    /// Call `func` with up to 6 scalar arguments in `r0..r5`.
    ///
    /// # Errors
    /// Any [`MachineError`] trap; the engine state is unspecified after a
    /// trap (call [`DecodedEngine::reset_data`] before reusing it).
    pub fn call(
        &mut self,
        func: &str,
        args: &[i32],
        device: &mut dyn PortDevice,
    ) -> Result<RunResult, MachineError> {
        self.run(func, args, device, None)
    }

    /// [`DecodedEngine::call`] with one transient fault injected mid-run,
    /// exactly as [`crate::machine::Machine::call_faulted`] injects it:
    /// at the first instruction boundary whose cycle count is at or past
    /// the target. A fault that never fires leaves the run bit-identical
    /// to [`DecodedEngine::call`].
    ///
    /// # Errors
    /// Any [`MachineError`] trap — under a fault a trap is an outcome,
    /// not a bug.
    pub fn call_faulted(
        &mut self,
        func: &str,
        args: &[i32],
        device: &mut dyn PortDevice,
        fault: &FaultSpec,
    ) -> Result<RunResult, MachineError> {
        self.run(func, args, device, Some(fault))
    }

    fn run(
        &mut self,
        func: &str,
        args: &[i32],
        device: &mut dyn PortDevice,
        fault: Option<&FaultSpec>,
    ) -> Result<RunResult, MachineError> {
        if args.len() > 6 {
            return Err(MachineError::TooManyArgs);
        }
        let entry = self
            .program
            .image
            .entry_of(func)
            .ok_or_else(|| MachineError::UnknownFunction(func.into()))?;

        let steps: &[Step] = &self.program.steps;
        let reg_pool = &self.program.image.reg_pool;
        let regs = &mut self.regs;
        let mem = &mut *self.mem;
        let flags = &mut self.flags;
        let max_cycles = self.max_cycles;
        // Masked once so every `regs[sp]` below indexes with a
        // provably-in-range value (no bounds check in the hot loop).
        let sp = Reg::SP.index() & 15;

        *regs = [0; 16];
        for (i, a) in args.iter().enumerate() {
            regs[i] = *a;
        }
        regs[sp] = STACK_TOP as i32;

        let mut cycles: u64 = 0;
        let mut insns: u64 = 0;
        let mut energy = 0.0f64;
        // 16-wide (classes only fill the first ENERGY_CLASS_COUNT slots)
        // so the masked index needs no bounds check.
        let mut counts = [0u64; 16];

        let mut stack: Vec<u32> = Vec::new();
        let mut pc = entry as usize;

        // The careful loop's first fetch reads the no-predecessor cost
        // table; every later fetch reads the static-predecessor one. An
        // unconditional pointer move keeps the swap branch-free.
        let mut tab = &self.program.steps_first[..];

        // SEU injection state, as in the reference: the fault fires once,
        // at the first instruction boundary at or past its target cycle,
        // and `skip_armed` carries a pending skip across control ops
        // that end a run without an effect to suppress.
        let mut fault_pending = fault;
        let mut skip_armed = false;
        // The fast path stops before any run whose last in-run boundary
        // reaches `stop`: past the budget (the run traps) or at the
        // fault's target (the run injects). Unfaulted, that is the
        // budget alone.
        let mut stop = max_cycles
            .saturating_add(1)
            .min(fault.map_or(u64::MAX, |f| f.at_cycle));
        // Whether a faulted run may return to the fast path after its
        // fault fired.
        let resume = fault.is_some()
            && self
                .program
                .exact
                .as_ref()
                .is_some_and(|ex| max_cycles <= ex.max_budget);

        'engine: loop {
            // ---- Exact-integer fast path ----
            //
            // Accounting is charged one whole run at a time, in integer
            // arithmetic, when the run's final control op executes; ops in
            // between run semantics only. The budget is checked once per run
            // entry: `pre` is the reference's binding checkpoint inside the
            // run, so if it clears, every per-insn check the reference would
            // perform inside the run clears too. When it doesn't clear, the
            // reference traps somewhere in the run — the engine hands the
            // (exactly reference-equal) partial state to the per-insn
            // careful loop below to reproduce the trap point, its error kind
            // and any device traffic leading up to it.
            if let Some(ex) = &self.program.exact {
                if max_cycles <= ex.max_budget && cycles + ex.pre[pc] < stop {
                    let hot: &[HotOp] = &self.program.hot;
                    // `hot` is padded to a power of two, so this mask makes
                    // every fetch provably in bounds (and is an identity
                    // for all reachable pcs).
                    let hmask = hot.len() - 1;
                    let aggs = &ex.aggs[..];
                    let pre = &ex.pre[..];
                    let hits_t = &mut self.hits_t[..];
                    let hits_nt = &mut self.hits_nt[..];
                    // A trapped previous call can abandon counters mid-run;
                    // its accounting must not leak into this call.
                    for &s in &ex.sites {
                        hits_t[s as usize] = 0;
                        hits_nt[s as usize] = 0;
                    }
                    // The call's first charged insn has no predecessor:
                    // pre-subtract the `overhead(Branch, entry class)` its
                    // static baking assumes (wrapping; nonnegative again
                    // after the first run's charge lands). Re-entered after
                    // a fault, the careful loop's f64 sum is an exact
                    // integer and seeds the accumulator as is.
                    let mut energy_u = if insns == 0 {
                        0u64.wrapping_sub(ex.ovh_branch_u[(steps[pc].cost.class as usize) & 15])
                    } else {
                        energy as u64
                    };

                    // Charging a run = one cycle add (the doom check needs
                    // cycles current) plus one counter bump; everything else
                    // is folded from the counters at exit.
                    macro_rules! agg_charge {
                        ($idx:expr, cyc, en) => {{
                            let i = $idx;
                            cycles += aggs[i].cyc;
                            hits_t[i] += 1;
                        }};
                        ($idx:expr, cyc_nt, en_nt) => {{
                            let i = $idx;
                            cycles += aggs[i].cyc_nt;
                            hits_nt[i] += 1;
                        }};
                    }
                    macro_rules! fold_hits {
                        () => {{
                            for &s in &ex.sites {
                                let i = s as usize;
                                let (ht, hnt) = (hits_t[i], hits_nt[i]);
                                let h = ht + hnt;
                                if h != 0 {
                                    let a = &aggs[i];
                                    insns += h * u64::from(a.insns);
                                    energy_u = energy_u
                                        .wrapping_add(a.en.wrapping_mul(ht))
                                        .wrapping_add(a.en_nt.wrapping_mul(hnt));
                                    for (dst, src) in counts.iter_mut().zip(a.counts.iter()) {
                                        *dst += h * u64::from(*src);
                                    }
                                    hits_t[i] = 0;
                                    hits_nt[i] = 0;
                                }
                            }
                        }};
                    }
                    macro_rules! finish_fast {
                        () => {{
                            fold_hits!();
                            let mut class_counts = [0u64; ENERGY_CLASS_COUNT];
                            class_counts.copy_from_slice(&counts[..ENERGY_CLASS_COUNT]);
                            return Ok(RunResult {
                                return_value: regs[0],
                                cycles,
                                insns,
                                energy_pj: energy_u as f64,
                                class_counts,
                            });
                        }};
                    }

                    loop {
                        match hot[pc & hmask] {
                            HotOp::AluRR { op, rd, rn, rm } => {
                                regs[rd as usize & 15] =
                                    op.eval(regs[rn as usize & 15], regs[rm as usize & 15]);
                            }
                            HotOp::AluRI { op, rd, rn, imm } => {
                                regs[rd as usize & 15] = op.eval(regs[rn as usize & 15], imm);
                            }
                            HotOp::MovR { rd, rm } => {
                                regs[rd as usize & 15] = regs[rm as usize & 15];
                            }
                            HotOp::MovI { rd, imm } => {
                                regs[rd as usize & 15] = imm;
                            }
                            HotOp::CmpR { rn, rm } => {
                                *flags = (regs[rn as usize & 15], regs[rm as usize & 15]);
                            }
                            HotOp::CmpI { rn, imm } => {
                                *flags = (regs[rn as usize & 15], imm);
                            }
                            HotOp::Csel { cond, rd, rt, rf } => {
                                let (a, b) = *flags;
                                regs[rd as usize & 15] = if cond.holds(a, b) {
                                    regs[rt as usize & 15]
                                } else {
                                    regs[rf as usize & 15]
                                };
                            }
                            HotOp::LdrR { rd, base, roff } => {
                                let addr = (regs[base as usize & 15] as u32)
                                    .wrapping_add(regs[roff as usize & 15] as u32);
                                regs[rd as usize & 15] = ld(mem, addr)?;
                            }
                            HotOp::LdrI { rd, base, imm } => {
                                let addr =
                                    (regs[base as usize & 15] as u32).wrapping_add(imm as u32);
                                regs[rd as usize & 15] = ld(mem, addr)?;
                            }
                            HotOp::StrR { rs, base, roff } => {
                                let addr = (regs[base as usize & 15] as u32)
                                    .wrapping_add(regs[roff as usize & 15] as u32);
                                st(mem, addr, regs[rs as usize & 15])?;
                            }
                            HotOp::StrI { rs, base, imm } => {
                                let addr =
                                    (regs[base as usize & 15] as u32).wrapping_add(imm as u32);
                                st(mem, addr, regs[rs as usize & 15])?;
                            }
                            HotOp::Push { list } => {
                                for r in &reg_pool
                                    [list.start as usize..list.start as usize + list.len as usize]
                                {
                                    let top = (regs[sp] as u32).wrapping_sub(4);
                                    regs[sp] = top as i32;
                                    st(mem, top, regs[r.index() & 15])?;
                                }
                            }
                            HotOp::Pop { list } => {
                                for r in reg_pool
                                    [list.start as usize..list.start as usize + list.len as usize]
                                    .iter()
                                    .rev()
                                {
                                    let top = regs[sp] as u32;
                                    let v = ld(mem, top)?;
                                    regs[r.index() & 15] = v;
                                    regs[sp] = top.wrapping_add(4) as i32;
                                }
                            }
                            HotOp::In { rd, port } => {
                                regs[rd as usize & 15] = device.input(port);
                            }
                            HotOp::Out { rs, port } => {
                                device.output(port, regs[rs as usize & 15]);
                            }
                            HotOp::Nop => {}
                            HotOp::Branch { target } => {
                                agg_charge!(pc, cyc, en);
                                pc = target as usize;
                                if cycles + pre[pc] >= stop {
                                    break;
                                }
                                continue;
                            }
                            HotOp::CondBranch {
                                cond,
                                taken,
                                fallthrough,
                            } => {
                                let (a, b) = *flags;
                                if cond.holds(a, b) {
                                    agg_charge!(pc, cyc, en);
                                    pc = taken as usize;
                                } else {
                                    agg_charge!(pc, cyc_nt, en_nt);
                                    pc = fallthrough as usize;
                                }
                                if cycles + pre[pc] >= stop {
                                    break;
                                }
                                continue;
                            }
                            HotOp::Call { target } => {
                                agg_charge!(pc, cyc, en);
                                if stack.len() >= MAX_CALL_DEPTH {
                                    return Err(MachineError::CallDepth);
                                }
                                stack.push(pc as u32 + 1);
                                pc = target as usize;
                                if cycles + pre[pc] >= stop {
                                    break;
                                }
                                continue;
                            }
                            HotOp::Ret => {
                                agg_charge!(pc, cyc, en);
                                match stack.pop() {
                                    Some(ret) => {
                                        pc = ret as usize;
                                        if cycles + pre[pc] >= stop {
                                            break;
                                        }
                                        continue;
                                    }
                                    None => finish_fast!(),
                                }
                            }
                            HotOp::Halt => {
                                agg_charge!(pc, cyc, en);
                                finish_fast!();
                            }
                            // ---- fused pairs: both ops' semantics in one
                            // dispatch; `pc += 1` here plus the shared bottom
                            // increment skips both slots. ----
                            HotOp::StrILdrI(p) => {
                                x_str_ldr(&p, regs, mem)?;
                                pc += 1;
                            }
                            HotOp::LdrIStrI(p) => {
                                x_ldr_str(&p, regs, mem)?;
                                pc += 1;
                            }
                            HotOp::LdrILdrI(p) => {
                                x_ldr_ldr(&p, regs, mem)?;
                                pc += 1;
                            }
                            HotOp::LdrIAluRI(p) => {
                                x_ldr_alu_ri(&p, regs, mem)?;
                                pc += 1;
                            }
                            HotOp::LdrIAluRR(p) => {
                                x_ldr_alu_rr(&p, regs, mem)?;
                                pc += 1;
                            }
                            HotOp::LdrIMovI(p) => {
                                x_ldr_mov(&p, regs, mem)?;
                                pc += 1;
                            }
                            HotOp::LdrICmpI(p) => {
                                x_ldr_cmp_i(&p, regs, mem, flags)?;
                                pc += 1;
                            }
                            HotOp::AluRILdrI(p) => {
                                x_alu_ri_ldr(&p, regs, mem)?;
                                pc += 1;
                            }
                            HotOp::AluRIStrI(p) => {
                                x_alu_ri_str(&p, regs, mem)?;
                                pc += 1;
                            }
                            HotOp::AluRIAluRR(p) => {
                                x_alu_ri_alu_rr(&p, regs);
                                pc += 1;
                            }
                            HotOp::AluRRLdrI(p) => {
                                x_alu_rr_ldr(&p, regs, mem)?;
                                pc += 1;
                            }
                            HotOp::AluRRStrI(p) => {
                                x_alu_rr_str(&p, regs, mem)?;
                                pc += 1;
                            }
                            HotOp::MovILdrI(p) => {
                                x_mov_ldr(&p, regs, mem)?;
                                pc += 1;
                            }
                            HotOp::MovIMovI(p) => {
                                x_mov_mov(&p, regs);
                                pc += 1;
                            }
                            HotOp::MovICmpR(p) => {
                                x_mov_cmp_r(&p, regs, flags);
                                pc += 1;
                            }
                            HotOp::MovICsel(p) => {
                                x_mov_csel(&p, regs, flags);
                                pc += 1;
                            }
                            HotOp::CselStrI(p) => {
                                x_csel_str(&p, regs, mem, flags)?;
                                pc += 1;
                            }
                            HotOp::CmpRMovI(p) => {
                                x_cmp_r_mov(&p, regs, flags);
                                pc += 1;
                            }
                            HotOp::StrIMovI(p) => {
                                x_str_mov(&p, regs, mem)?;
                                pc += 1;
                            }
                            HotOp::StrIMovR(p) => {
                                x_str_mov_r(&p, regs, mem)?;
                                pc += 1;
                            }
                            HotOp::MovRAluRI(p) => {
                                x_mov_r_alu_ri(&p, regs);
                                pc += 1;
                            }
                            // ---- fused quads: two pairs per dispatch. ----
                            HotOp::QLdrMovCmpRMov(a, b) => {
                                x_ldr_mov(&a, regs, mem)?;
                                x_cmp_r_mov(&b, regs, flags);
                                pc += 3;
                            }
                            HotOp::QCmpRMovMovCsel(a, b) => {
                                x_cmp_r_mov(&a, regs, flags);
                                x_mov_csel(&b, regs, flags);
                                pc += 3;
                            }
                            HotOp::QMovCselStrLdr(a, b) => {
                                x_mov_csel(&a, regs, flags);
                                x_str_ldr(&b, regs, mem)?;
                                pc += 3;
                            }
                            HotOp::QLdrAluRIStrLdr(a, b) => {
                                x_ldr_alu_ri(&a, regs, mem)?;
                                x_str_ldr(&b, regs, mem)?;
                                pc += 3;
                            }
                            HotOp::QAluRIAluRRLdrStr(a, b) => {
                                x_alu_ri_alu_rr(&a, regs);
                                x_ldr_str(&b, regs, mem)?;
                                pc += 3;
                            }
                            HotOp::QMovLdrAluRIAluRR(a, b) => {
                                x_mov_ldr(&a, regs, mem)?;
                                x_alu_ri_alu_rr(&b, regs);
                                pc += 3;
                            }
                            HotOp::QStrLdrAluRIStr(a, b) => {
                                x_str_ldr(&a, regs, mem)?;
                                x_alu_ri_str(&b, regs, mem)?;
                                pc += 3;
                            }
                            HotOp::QLdrMovAluRRStr(a, b) => {
                                x_ldr_mov(&a, regs, mem)?;
                                x_alu_rr_str(&b, regs, mem)?;
                                pc += 3;
                            }
                            HotOp::QAluRRStrLdrStr(a, b) => {
                                x_alu_rr_str(&a, regs, mem)?;
                                x_ldr_str(&b, regs, mem)?;
                                pc += 3;
                            }
                            HotOp::QAluRRStrLdrMov(a, b) => {
                                x_alu_rr_str(&a, regs, mem)?;
                                x_ldr_mov(&b, regs, mem)?;
                                pc += 3;
                            }
                            HotOp::QAluRRStrLdrAluRI(a, b) => {
                                x_alu_rr_str(&a, regs, mem)?;
                                x_ldr_alu_ri(&b, regs, mem)?;
                                pc += 3;
                            }
                            HotOp::QLdrStrLdrAluRI(a, b) => {
                                x_ldr_str(&a, regs, mem)?;
                                x_ldr_alu_ri(&b, regs, mem)?;
                                pc += 3;
                            }
                            HotOp::QAluRILdrAluRIAluRR(a, b) => {
                                x_alu_ri_ldr(&a, regs, mem)?;
                                x_alu_ri_alu_rr(&b, regs);
                                pc += 3;
                            }
                            HotOp::QAluRRLdrStrLdr(a, b) => {
                                x_alu_rr_ldr(&a, regs, mem)?;
                                x_str_ldr(&b, regs, mem)?;
                                pc += 3;
                            }
                            HotOp::QLdrLdrAluRRStr(a, b) => {
                                x_ldr_ldr(&a, regs, mem)?;
                                x_alu_rr_str(&b, regs, mem)?;
                                pc += 3;
                            }
                            HotOp::QLdrStrLdrLdr(a, b) => {
                                x_ldr_str(&a, regs, mem)?;
                                x_ldr_ldr(&b, regs, mem)?;
                                pc += 3;
                            }
                            // ---- straight-line megas ----
                            HotOp::OLdrMovCmpRMovCselStrLdr(a, b, c, d) => {
                                x_ldr_mov(&a, regs, mem)?;
                                x_cmp_r_mov(&b, regs, flags);
                                x_mov_csel(&c, regs, flags);
                                x_str_ldr(&d, regs, mem)?;
                                pc += 7;
                            }
                            HotOp::OLdrMovAluRRStrLdrMovCmpRMov(a, b, c, d) => {
                                x_ldr_mov(&a, regs, mem)?;
                                x_alu_rr_str(&b, regs, mem)?;
                                x_ldr_mov(&c, regs, mem)?;
                                x_cmp_r_mov(&d, regs, flags);
                                pc += 7;
                            }
                            HotOp::OMovLdrAluRIAluRRLdrStrLdrLdr(a, b, c, d) => {
                                x_mov_ldr(&a, regs, mem)?;
                                x_alu_ri_alu_rr(&b, regs);
                                x_ldr_str(&c, regs, mem)?;
                                x_ldr_ldr(&d, regs, mem)?;
                                pc += 7;
                            }
                            HotOp::OLdrStrLdrLdrAluRRStrLdrAluRI(a, b, c, d) => {
                                x_ldr_str(&a, regs, mem)?;
                                x_ldr_ldr(&b, regs, mem)?;
                                x_alu_rr_str(&c, regs, mem)?;
                                x_ldr_alu_ri(&d, regs, mem)?;
                                pc += 7;
                            }
                            HotOp::SAluRRStrLdrAluRIStrMovR(a, b, c) => {
                                x_alu_rr_str(&a, regs, mem)?;
                                x_ldr_alu_ri(&b, regs, mem)?;
                                x_str_mov_r(&c, regs, mem)?;
                                pc += 5;
                            }
                            HotOp::QStrLdrLdrAluRR(a, b) => {
                                x_str_ldr(&a, regs, mem)?;
                                x_ldr_alu_rr(&b, regs, mem)?;
                                pc += 3;
                            }
                            HotOp::WLdrAluRIStrLdrMov(a, b, c) => {
                                x_ldr_alu_ri(&a, regs, mem)?;
                                x_str_ldr(&b, regs, mem)?;
                                regs[c.rd as usize & 15] = c.imm;
                                pc += 4;
                            }
                            HotOp::SLdrAluRIStrLdrAluRIStr(a, b, c) => {
                                x_ldr_alu_ri(&a, regs, mem)?;
                                x_str_ldr(&b, regs, mem)?;
                                x_alu_ri_str(&c, regs, mem)?;
                                pc += 5;
                            }
                            HotOp::SLdrAluRRStrLdrAluRIStr(a, b, c) => {
                                x_ldr_alu_rr(&a, regs, mem)?;
                                x_str_ldr(&b, regs, mem)?;
                                x_alu_ri_str(&c, regs, mem)?;
                                pc += 5;
                            }
                            HotOp::SLdrAluRIAluRRLdrStrLdr(a, b, c) => {
                                x_ldr_alu_ri(&a, regs, mem)?;
                                x_alu_rr_ldr(&b, regs, mem)?;
                                x_str_ldr(&c, regs, mem)?;
                                pc += 5;
                            }
                            HotOp::SMovLdrAluRIAluRRLdrStr(a, b, c) => {
                                x_mov_ldr(&a, regs, mem)?;
                                x_alu_ri_alu_rr(&b, regs);
                                x_ldr_str(&c, regs, mem)?;
                                pc += 5;
                            }
                            HotOp::SAluRILdrAluRIAluRRLdrStr(a, b, c) => {
                                x_alu_ri_ldr(&a, regs, mem)?;
                                x_alu_ri_alu_rr(&b, regs);
                                x_ldr_str(&c, regs, mem)?;
                                pc += 5;
                            }
                            HotOp::OMovLdrAluRIAluRRLdrStrLdrAluRI(a, b, c, d) => {
                                x_mov_ldr(&a, regs, mem)?;
                                x_alu_ri_alu_rr(&b, regs);
                                x_ldr_str(&c, regs, mem)?;
                                x_ldr_alu_ri(&d, regs, mem)?;
                                pc += 7;
                            }
                            HotOp::OLdrLdrAluRRStrMovLdrAluRIAluRR(a, b, c, d) => {
                                x_ldr_ldr(&a, regs, mem)?;
                                x_alu_rr_str(&b, regs, mem)?;
                                x_mov_ldr(&c, regs, mem)?;
                                x_alu_ri_alu_rr(&d, regs);
                                pc += 7;
                            }
                            // ---- fused run tails: the run aggregate lives at
                            // the control op's own slot (`pc + width - 1`). ----
                            HotOp::CmpICondBranch(p) => {
                                let a = regs[p.rn as usize & 15];
                                *flags = (a, p.imm);
                                if p.cond.holds(a, p.imm) {
                                    agg_charge!(pc + 1, cyc, en);
                                    pc = p.taken as usize;
                                } else {
                                    agg_charge!(pc + 1, cyc_nt, en_nt);
                                    pc = p.fallthrough as usize;
                                }
                                if cycles + pre[pc] >= stop {
                                    break;
                                }
                                continue;
                            }
                            HotOp::CmpRCondBranch(p) => {
                                let a = regs[p.rn as usize & 15];
                                let b = regs[p.rm as usize & 15];
                                *flags = (a, b);
                                if p.cond.holds(a, b) {
                                    agg_charge!(pc + 1, cyc, en);
                                    pc = p.taken as usize;
                                } else {
                                    agg_charge!(pc + 1, cyc_nt, en_nt);
                                    pc = p.fallthrough as usize;
                                }
                                if cycles + pre[pc] >= stop {
                                    break;
                                }
                                continue;
                            }
                            HotOp::StrIBranch(p) => {
                                let addr =
                                    (regs[p.base as usize & 15] as u32).wrapping_add(p.imm as u32);
                                st(mem, addr, regs[p.rs as usize & 15])?;
                                agg_charge!(pc + 1, cyc, en);
                                pc = p.target as usize;
                                if cycles + pre[pc] >= stop {
                                    break;
                                }
                                continue;
                            }
                            HotOp::QStrLdrCmpICb(a, b) => {
                                x_str_ldr(&a, regs, mem)?;
                                let v = regs[b.rn as usize & 15];
                                *flags = (v, b.imm);
                                if b.cond.holds(v, b.imm) {
                                    agg_charge!(pc + 3, cyc, en);
                                    pc = b.taken as usize;
                                } else {
                                    agg_charge!(pc + 3, cyc_nt, en_nt);
                                    pc = b.fallthrough as usize;
                                }
                                if cycles + pre[pc] >= stop {
                                    break;
                                }
                                continue;
                            }
                            HotOp::QStrLdrStrBr(a, b) => {
                                x_str_ldr(&a, regs, mem)?;
                                let addr =
                                    (regs[b.base as usize & 15] as u32).wrapping_add(b.imm as u32);
                                st(mem, addr, regs[b.rs as usize & 15])?;
                                agg_charge!(pc + 3, cyc, en);
                                pc = b.target as usize;
                                if cycles + pre[pc] >= stop {
                                    break;
                                }
                                continue;
                            }
                            HotOp::TLdrStrBr(a, target) => {
                                x_ldr_str(&a, regs, mem)?;
                                agg_charge!(pc + 2, cyc, en);
                                pc = target as usize;
                                if cycles + pre[pc] >= stop {
                                    break;
                                }
                                continue;
                            }
                            // ---- control-tailed megas ----
                            HotOp::DLdrMovCmpRMovCselStrLdrCmpICb(a, b, c, d, e) => {
                                x_ldr_mov(&a, regs, mem)?;
                                x_cmp_r_mov(&b, regs, flags);
                                x_mov_csel(&c, regs, flags);
                                x_str_ldr(&d, regs, mem)?;
                                let v = regs[e.rn as usize & 15];
                                *flags = (v, e.imm);
                                if e.cond.holds(v, e.imm) {
                                    agg_charge!(pc + 9, cyc, en);
                                    pc = e.taken as usize;
                                } else {
                                    agg_charge!(pc + 9, cyc_nt, en_nt);
                                    pc = e.fallthrough as usize;
                                }
                                if cycles + pre[pc] >= stop {
                                    break;
                                }
                                continue;
                            }
                            HotOp::SMovCselStrLdrCmpICb(a, b, e) => {
                                x_mov_csel(&a, regs, flags);
                                x_str_ldr(&b, regs, mem)?;
                                let v = regs[e.rn as usize & 15];
                                *flags = (v, e.imm);
                                if e.cond.holds(v, e.imm) {
                                    agg_charge!(pc + 5, cyc, en);
                                    pc = e.taken as usize;
                                } else {
                                    agg_charge!(pc + 5, cyc_nt, en_nt);
                                    pc = e.fallthrough as usize;
                                }
                                if cycles + pre[pc] >= stop {
                                    break;
                                }
                                continue;
                            }
                            HotOp::SLdrAluRIStrLdrStrBr(a, b, e) => {
                                x_ldr_alu_ri(&a, regs, mem)?;
                                x_str_ldr(&b, regs, mem)?;
                                let addr =
                                    (regs[e.base as usize & 15] as u32).wrapping_add(e.imm as u32);
                                st(mem, addr, regs[e.rs as usize & 15])?;
                                agg_charge!(pc + 5, cyc, en);
                                pc = e.target as usize;
                                if cycles + pre[pc] >= stop {
                                    break;
                                }
                                continue;
                            }
                            HotOp::SLdrMovAluRRStrLdrStrBr(a, b, c, target) => {
                                x_ldr_mov(&a, regs, mem)?;
                                x_alu_rr_str(&b, regs, mem)?;
                                x_ldr_str(&c, regs, mem)?;
                                agg_charge!(pc + 6, cyc, en);
                                pc = target as usize;
                                if cycles + pre[pc] >= stop {
                                    break;
                                }
                                continue;
                            }
                            HotOp::OLdrStrLdrAluRIStrLdrStrBr(a, b, c, e) => {
                                x_ldr_str(&a, regs, mem)?;
                                x_ldr_alu_ri(&b, regs, mem)?;
                                x_str_ldr(&c, regs, mem)?;
                                let addr =
                                    (regs[e.base as usize & 15] as u32).wrapping_add(e.imm as u32);
                                st(mem, addr, regs[e.rs as usize & 15])?;
                                agg_charge!(pc + 7, cyc, en);
                                pc = e.target as usize;
                                if cycles + pre[pc] >= stop {
                                    break;
                                }
                                continue;
                            }
                            HotOp::WAluRRStrLdrStrBr(a, b, t) => {
                                x_alu_rr_str(&a, regs, mem)?;
                                x_ldr_str(&b, regs, mem)?;
                                agg_charge!(pc + 4, cyc, en);
                                pc = t as usize;
                                if cycles + pre[pc] >= stop {
                                    break;
                                }
                                continue;
                            }
                            HotOp::OCmpRMovMovCselStrLdrCmpICb(a, b, c, e) => {
                                x_cmp_r_mov(&a, regs, flags);
                                x_mov_csel(&b, regs, flags);
                                x_str_ldr(&c, regs, mem)?;
                                let v = regs[e.rn as usize & 15];
                                *flags = (v, e.imm);
                                if e.cond.holds(v, e.imm) {
                                    agg_charge!(pc + 7, cyc, en);
                                    pc = e.taken as usize;
                                } else {
                                    agg_charge!(pc + 7, cyc_nt, en_nt);
                                    pc = e.fallthrough as usize;
                                }
                                if cycles + pre[pc] >= stop {
                                    break;
                                }
                                continue;
                            }
                            HotOp::XLdrAluRIStrLdrMovAluRRStrLdrStrBr(a, b, c, d, e, t) => {
                                x_ldr_alu_ri(&a, regs, mem)?;
                                x_str_ldr(&b, regs, mem)?;
                                regs[c.rd as usize & 15] = c.imm;
                                x_alu_rr_str(&d, regs, mem)?;
                                x_ldr_str(&e, regs, mem)?;
                                agg_charge!(pc + 9, cyc, en);
                                pc = t as usize;
                                if cycles + pre[pc] >= stop {
                                    break;
                                }
                                continue;
                            }
                            HotOp::XLdrAluRIStrLdrAluRIStrLdrMovAluRRStrLdrStrBr(
                                a,
                                b,
                                c,
                                d,
                                e,
                                f,
                                t,
                            ) => {
                                x_ldr_alu_ri(&a, regs, mem)?;
                                x_str_ldr(&b, regs, mem)?;
                                x_alu_ri_str(&c, regs, mem)?;
                                x_ldr_mov(&d, regs, mem)?;
                                x_alu_rr_str(&e, regs, mem)?;
                                x_ldr_str(&f, regs, mem)?;
                                agg_charge!(pc + 12, cyc, en);
                                pc = t as usize;
                                if cycles + pre[pc] >= stop {
                                    break;
                                }
                                continue;
                            }
                        }
                        pc += 1;
                    }

                    // Doomed: the budget trips, or the fault fires, inside
                    // the run starting at `pc`. After the fold every
                    // accumulator equals the reference's value at this run
                    // boundary, so continue per-insn.
                    fold_hits!();
                    energy = energy_u as f64;
                    tab = steps;
                }
            }

            // ---- Per-insn careful loop ----
            //
            // The reference charge sequence with the whole f64 sum baked
            // into one per-op constant — see [`OpCost`] for why that is
            // bitwise-faithful. Used from the start for non-integer energy
            // models or over-budget `max_cycles`, and as the continuation
            // that pins the exact trap point once the fast path detects the
            // budget will trip, or the exact boundary a fault fires at.
            macro_rules! charge {
                ($c:expr) => {{
                    cycles += $c.cyc;
                    insns += 1;
                    counts[($c.class as usize) & 15] += 1;
                    energy += $c.inc_pj;
                }};
            }
            // Run entries (right after a control op) hand back to the fast
            // path once the fault has fired and no skip is pending.
            macro_rules! run_entry {
                () => {{
                    if resume && fault_pending.is_none() && !skip_armed {
                        continue 'engine;
                    }
                    continue;
                }};
            }
            loop {
                if cycles > max_cycles {
                    return Err(MachineError::CycleLimit);
                }
                if let Some(f) = fault_pending {
                    if cycles >= f.at_cycle {
                        skip_armed = f.kind.strike(regs, mem);
                        fault_pending = None;
                        stop = max_cycles.saturating_add(1);
                    }
                }
                let step = &tab[pc];
                tab = steps;
                let c = &step.cost;
                if skip_armed && !carries_skip(&step.op) {
                    // The skipped op is charged (a skip upsets the datapath,
                    // not the pipeline) but has no effect; a skipped `Call`
                    // falls through to its resume site, a run entry.
                    skip_armed = false;
                    charge!(c);
                    pc += 1;
                    if matches!(step.op, DecodedOp::Call { .. }) {
                        run_entry!();
                    }
                    continue;
                }
                match step.op {
                    DecodedOp::AluRR { op, rd, rn, rm } => {
                        charge!(c);
                        regs[rd as usize & 15] =
                            op.eval(regs[rn as usize & 15], regs[rm as usize & 15]);
                    }
                    DecodedOp::AluRI { op, rd, rn, imm } => {
                        charge!(c);
                        regs[rd as usize & 15] = op.eval(regs[rn as usize & 15], imm);
                    }
                    DecodedOp::MovR { rd, rm } => {
                        charge!(c);
                        regs[rd as usize & 15] = regs[rm as usize & 15];
                    }
                    DecodedOp::MovI { rd, imm } | DecodedOp::MovI32 { rd, imm } => {
                        charge!(c);
                        regs[rd as usize & 15] = imm;
                    }
                    DecodedOp::CmpR { rn, rm } => {
                        charge!(c);
                        *flags = (regs[rn as usize & 15], regs[rm as usize & 15]);
                    }
                    DecodedOp::CmpI { rn, imm } => {
                        charge!(c);
                        *flags = (regs[rn as usize & 15], imm);
                    }
                    DecodedOp::Csel { cond, rd, rt, rf } => {
                        charge!(c);
                        let (a, b) = *flags;
                        regs[rd as usize & 15] = if cond.holds(a, b) {
                            regs[rt as usize & 15]
                        } else {
                            regs[rf as usize & 15]
                        };
                    }
                    DecodedOp::LdrR { rd, base, roff } => {
                        charge!(c);
                        let addr = (regs[base as usize & 15] as u32)
                            .wrapping_add(regs[roff as usize & 15] as u32);
                        regs[rd as usize & 15] = ld(mem, addr)?;
                    }
                    DecodedOp::LdrI { rd, base, imm } => {
                        charge!(c);
                        let addr = (regs[base as usize & 15] as u32).wrapping_add(imm as u32);
                        regs[rd as usize & 15] = ld(mem, addr)?;
                    }
                    DecodedOp::StrR { rs, base, roff } => {
                        charge!(c);
                        let addr = (regs[base as usize & 15] as u32)
                            .wrapping_add(regs[roff as usize & 15] as u32);
                        st(mem, addr, regs[rs as usize & 15])?;
                    }
                    DecodedOp::StrI { rs, base, imm } => {
                        charge!(c);
                        let addr = (regs[base as usize & 15] as u32).wrapping_add(imm as u32);
                        st(mem, addr, regs[rs as usize & 15])?;
                    }
                    DecodedOp::Push { list } => {
                        charge!(c);
                        for r in
                            &reg_pool[list.start as usize..list.start as usize + list.len as usize]
                        {
                            let top = (regs[sp] as u32).wrapping_sub(4);
                            regs[sp] = top as i32;
                            st(mem, top, regs[r.index() & 15])?;
                        }
                    }
                    DecodedOp::Pop { list } => {
                        charge!(c);
                        for r in reg_pool
                            [list.start as usize..list.start as usize + list.len as usize]
                            .iter()
                            .rev()
                        {
                            let top = regs[sp] as u32;
                            let v = ld(mem, top)?;
                            regs[r.index() & 15] = v;
                            regs[sp] = top.wrapping_add(4) as i32;
                        }
                    }
                    DecodedOp::Call { target } => {
                        charge!(c);
                        if stack.len() >= MAX_CALL_DEPTH {
                            return Err(MachineError::CallDepth);
                        }
                        stack.push(pc as u32 + 1);
                        pc = target as usize;
                        run_entry!();
                    }
                    DecodedOp::In { rd, port } => {
                        charge!(c);
                        regs[rd as usize & 15] = device.input(port);
                    }
                    DecodedOp::Out { rs, port } => {
                        charge!(c);
                        device.output(port, regs[rs as usize & 15]);
                    }
                    DecodedOp::Nop => charge!(c),
                    DecodedOp::Branch { target } => {
                        charge!(c);
                        pc = target as usize;
                        run_entry!();
                    }
                    DecodedOp::CondBranch {
                        cond,
                        taken,
                        fallthrough,
                    } => {
                        insns += 1;
                        counts[(c.class as usize) & 15] += 1;
                        let (a, b) = *flags;
                        if cond.holds(a, b) {
                            cycles += c.cyc;
                            energy += c.inc_pj;
                            pc = taken as usize;
                        } else {
                            cycles += c.cyc_nt;
                            energy += c.inc_nt_pj;
                            pc = fallthrough as usize;
                        }
                        run_entry!();
                    }
                    DecodedOp::Ret => {
                        charge!(c);
                        match stack.pop() {
                            Some(ret) => {
                                pc = ret as usize;
                                run_entry!();
                            }
                            None => break 'engine,
                        }
                    }
                    DecodedOp::Halt => {
                        charge!(c);
                        break 'engine;
                    }
                }
                pc += 1;
            }
        }

        let mut class_counts = [0u64; ENERGY_CLASS_COUNT];
        class_counts.copy_from_slice(&counts[..ENERGY_CLASS_COUNT]);
        Ok(RunResult {
            return_value: regs[0],
            cycles,
            insns,
            energy_pj: energy,
            class_counts,
        })
    }
}

/// Largest per-op increment admitted to the exact-integer path. Keeps
/// `max_budget` comfortably large while every partial sum stays below
/// 2^52.
const MAX_EXACT_INC: f64 = (1u64 << 40) as f64;

/// `v` as an exact nonnegative integer, or `None` if it isn't one.
fn exact_int(v: f64) -> Option<u64> {
    ((0.0..=MAX_EXACT_INC).contains(&v) && v.fract() == 0.0).then_some(v as u64)
}

/// Control ops that an armed skip passes over: they end a run and have
/// no writeback to suppress (`Call` does — its return-address push).
fn carries_skip(op: &DecodedOp) -> bool {
    matches!(
        op,
        DecodedOp::Branch { .. } | DecodedOp::CondBranch { .. } | DecodedOp::Ret | DecodedOp::Halt
    )
}

fn is_control(op: &DecodedOp) -> bool {
    matches!(
        op,
        DecodedOp::Branch { .. }
            | DecodedOp::CondBranch { .. }
            | DecodedOp::Call { .. }
            | DecodedOp::Ret
            | DecodedOp::Halt
    )
}

/// Build the run-aggregated integer accounting tables, or `None` if any
/// energy increment is not an exact nonnegative integer (a custom model
/// with fractional picojoules falls back to the per-insn loop).
fn build_exact_tables(
    image: &DecodedImage,
    steps: &[Step],
    steps_first: &[Step],
    em: &GroundTruthEnergy,
) -> Option<ExactTables> {
    let mut ovh_branch_u = [0u64; ENERGY_CLASS_COUNT];
    for (k, cur) in EnergyClass::ALL.iter().enumerate() {
        ovh_branch_u[k] = exact_int(em.overhead(EnergyClass::Branch, *cur))?;
    }

    let n = steps.len();
    let mut aggs = vec![RunAgg::default(); n];
    let mut pre = vec![0u64; n];
    let mut sites = Vec::new();
    let mut acc = RunAgg::default();
    let mut entry = 0usize;
    let mut max_inc = 1u64;
    let mut max_run_cyc = 0u64;
    for (i, s) in steps.iter().enumerate() {
        let c = &s.cost;
        if c.cyc == 0 || c.cyc_nt == 0 {
            // The budget cap below assumes insns ≤ cycles; a custom
            // cycle model with free ops would break that.
            return None;
        }
        let inc = exact_int(c.inc_pj)?;
        let inc_nt = exact_int(c.inc_nt_pj)?;
        max_inc = max_inc.max(inc).max(inc_nt);
        let cls = c.class as usize;
        if is_control(&s.op) {
            pre[entry] = acc.cyc;
            let mut counts = acc.counts;
            counts[cls] += 1;
            let agg = RunAgg {
                cyc: acc.cyc + c.cyc,
                cyc_nt: acc.cyc + c.cyc_nt,
                en: acc.en + inc,
                en_nt: acc.en + inc_nt,
                insns: acc.insns + 1,
                counts,
            };
            max_run_cyc = max_run_cyc.max(agg.cyc).max(agg.cyc_nt);
            aggs[i] = agg;
            sites.push(i as u32);
            acc = RunAgg::default();
            entry = i + 1;
        } else {
            acc.cyc += c.cyc;
            acc.en += inc;
            acc.insns += 1;
            acc.counts[cls] += 1;
        }
    }
    if acc.insns != 0 {
        // A validated program always ends each function on a terminator,
        // so a dangling run means the image is malformed — refuse the
        // fast path rather than miscount.
        return None;
    }

    // A run's first charged insn has no predecessor: its true increment
    // is the static baking minus `overhead(Branch, class)`. Verify the
    // identity holds exactly in the integer domain for every function
    // entry (the only ops the engine can start a call on).
    for f in &image.functions {
        let i = f.entry as usize;
        let cls = steps[i].cost.class as usize;
        let static_u = exact_int(steps[i].cost.inc_pj)?;
        let static_nt_u = exact_int(steps[i].cost.inc_nt_pj)?;
        if static_u.checked_sub(ovh_branch_u[cls]) != exact_int(steps_first[i].cost.inc_pj)
            || static_nt_u.checked_sub(ovh_branch_u[cls])
                != exact_int(steps_first[i].cost.inc_nt_pj)
        {
            return None;
        }
    }

    // Total charged insns never exceed total cycles (every op costs at
    // least one cycle), and cycles overshoot the budget by at most one
    // run — cap the budget so every partial energy sum stays below 2^52.
    let max_budget = ((1u64 << 52) / max_inc).saturating_sub(max_run_cyc + 1);
    Some(ExactTables {
        aggs,
        pre,
        sites,
        ovh_branch_u,
        max_budget,
    })
}

/// The energy class an op charges under, mirroring
/// [`EnergyClass::of_insn`] and [`EnergyClass::of_terminator`].
fn op_class(op: &DecodedOp) -> EnergyClass {
    match op {
        DecodedOp::AluRR { op, .. } | DecodedOp::AluRI { op, .. } => match op {
            AluOp::Mul => EnergyClass::Mul,
            AluOp::Div | AluOp::Rem => EnergyClass::Div,
            _ => EnergyClass::Alu,
        },
        DecodedOp::MovR { .. }
        | DecodedOp::MovI { .. }
        | DecodedOp::MovI32 { .. }
        | DecodedOp::CmpR { .. }
        | DecodedOp::CmpI { .. }
        | DecodedOp::Csel { .. } => EnergyClass::Alu,
        DecodedOp::LdrR { .. } | DecodedOp::LdrI { .. } => EnergyClass::Load,
        DecodedOp::StrR { .. } | DecodedOp::StrI { .. } => EnergyClass::Store,
        DecodedOp::Push { .. } | DecodedOp::Pop { .. } => EnergyClass::Stack,
        DecodedOp::Call { .. }
        | DecodedOp::Branch { .. }
        | DecodedOp::CondBranch { .. }
        | DecodedOp::Ret => EnergyClass::Branch,
        DecodedOp::In { .. } | DecodedOp::Out { .. } => EnergyClass::Io,
        DecodedOp::Nop | DecodedOp::Halt => EnergyClass::Idle,
    }
}

/// Bake one op's cycle and energy constants against its statically-known
/// predecessor class (`None` = the run's first instruction). The
/// class/cycle mapping mirrors [`CycleModel::cycles`],
/// [`CycleModel::terminator_cycles`], [`EnergyClass::of_insn`] and
/// [`EnergyClass::of_terminator`]; the f64 combination below repeats the
/// reference's `dynamic_energy` + leakage additions in their exact
/// order. The differential oracle pins the two code paths together.
fn op_cost(
    op: &DecodedOp,
    image: &DecodedImage,
    cm: &CycleModel,
    em: &GroundTruthEnergy,
    prev: Option<EnergyClass>,
) -> OpCost {
    let (cyc, cyc_nt, class, regs_moved) = match op {
        DecodedOp::AluRR { op, .. } | DecodedOp::AluRI { op, .. } => {
            let (cyc, class) = match op {
                AluOp::Mul => (cm.mul, EnergyClass::Mul),
                AluOp::Div | AluOp::Rem => (cm.div, EnergyClass::Div),
                _ => (cm.alu, EnergyClass::Alu),
            };
            (cyc, cyc, class, 0)
        }
        DecodedOp::MovR { .. } | DecodedOp::MovI { .. } => (cm.mov, cm.mov, EnergyClass::Alu, 0),
        DecodedOp::MovI32 { .. } => (cm.mov32, cm.mov32, EnergyClass::Alu, 0),
        DecodedOp::CmpR { .. } | DecodedOp::CmpI { .. } => (cm.cmp, cm.cmp, EnergyClass::Alu, 0),
        DecodedOp::Csel { .. } => (cm.csel, cm.csel, EnergyClass::Alu, 0),
        DecodedOp::LdrR { .. } | DecodedOp::LdrI { .. } => (cm.load, cm.load, EnergyClass::Load, 0),
        DecodedOp::StrR { .. } | DecodedOp::StrI { .. } => {
            (cm.store, cm.store, EnergyClass::Store, 0)
        }
        DecodedOp::Push { list } | DecodedOp::Pop { list } => {
            let n = image.reg_list(*list).len();
            let cyc = 1 + cm.push_pop_per_reg * n as u64;
            (cyc, cyc, EnergyClass::Stack, n)
        }
        DecodedOp::Call { .. } => (cm.call, cm.call, EnergyClass::Branch, 0),
        DecodedOp::In { .. } => (cm.port_in, cm.port_in, EnergyClass::Io, 0),
        DecodedOp::Out { .. } => (cm.port_out, cm.port_out, EnergyClass::Io, 0),
        DecodedOp::Nop => (cm.nop, cm.nop, EnergyClass::Idle, 0),
        DecodedOp::Branch { .. } => (cm.branch, cm.branch, EnergyClass::Branch, 0),
        DecodedOp::CondBranch { .. } => (cm.cond_taken, cm.cond_not_taken, EnergyClass::Branch, 0),
        DecodedOp::Ret => (cm.ret, cm.ret, EnergyClass::Branch, 0),
        DecodedOp::Halt => (cm.nop, cm.nop, EnergyClass::Idle, 0),
    };
    debug_assert_eq!(class, op_class(op));
    let mut e = em.base(class);
    if let Some(prev) = prev {
        e += em.overhead(prev, class);
    }
    if class == EnergyClass::Stack {
        e += em.stack_per_reg * regs_moved as f64;
    }
    OpCost {
        cyc,
        cyc_nt,
        class: class.index() as u8,
        inc_pj: e + em.leakage_per_cycle * cyc as f64,
        inc_nt_pj: e + em.leakage_per_cycle * cyc_nt as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::ports::{NullDevice, RecordingDevice};
    use std::collections::BTreeMap;
    use teamplay_isa::{Block, BlockId, Cond, Function, Insn, Operand, Terminator};

    fn differential(p: &Program, func: &str, args: &[i32]) {
        let mut reference = Machine::new(p.clone()).expect("reference loads");
        let decoded = DecodedProgram::new(p).expect("decodes");
        let mut engine = decoded.engine();
        let want = reference.call(func, args, &mut RecordingDevice::new());
        let got = engine.call(func, args, &mut RecordingDevice::new());
        match (&want, &got) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "{func}{args:?}");
                assert_eq!(
                    a.energy_pj.to_bits(),
                    b.energy_pj.to_bits(),
                    "{func}{args:?}: energy bits diverge"
                );
            }
            _ => assert_eq!(want, got, "{func}{args:?}"),
        }
    }

    fn fib_program() -> Program {
        // Recursive fib with callee-saved push/pop: exercises calls,
        // stack traffic, both branch outcomes and every charge path.
        let mut p = Program::new();
        let f = Function {
            name: "fib".into(),
            blocks: vec![
                Block {
                    insns: vec![Insn::Cmp {
                        rn: Reg::R0,
                        src: Operand::Imm(2),
                    }],
                    terminator: Terminator::CondBranch {
                        cond: Cond::Lt,
                        taken: BlockId(2),
                        fallthrough: BlockId(1),
                    },
                },
                Block {
                    insns: vec![
                        Insn::Push {
                            regs: vec![Reg::R4, Reg::R5],
                        },
                        Insn::Mov {
                            rd: Reg::R4,
                            src: Operand::Reg(Reg::R0),
                        },
                        Insn::Alu {
                            op: AluOp::Sub,
                            rd: Reg::R0,
                            rn: Reg::R4,
                            src: Operand::Imm(1),
                        },
                        Insn::Call { func: "fib".into() },
                        Insn::Mov {
                            rd: Reg::R5,
                            src: Operand::Reg(Reg::R0),
                        },
                        Insn::Alu {
                            op: AluOp::Sub,
                            rd: Reg::R0,
                            rn: Reg::R4,
                            src: Operand::Imm(2),
                        },
                        Insn::Call { func: "fib".into() },
                        Insn::Alu {
                            op: AluOp::Add,
                            rd: Reg::R0,
                            rn: Reg::R5,
                            src: Operand::Reg(Reg::R0),
                        },
                        Insn::Pop {
                            regs: vec![Reg::R4, Reg::R5],
                        },
                    ],
                    terminator: Terminator::Return,
                },
                Block::empty(Terminator::Return),
            ],
            loop_bounds: BTreeMap::new(),
            frame_size: 0,
        };
        p.add_function(f);
        p
    }

    #[test]
    fn recursion_matches_reference_bitwise() {
        let p = fib_program();
        for n in [0, 1, 2, 7, 12] {
            differential(&p, "fib", &[n]);
        }
    }

    #[test]
    fn globals_persist_and_reset_like_the_reference() {
        let mut p = Program::new();
        p.globals.insert("g".into(), vec![100]);
        let addr = DataLayout::of_program(&p).address("g").expect("g") as i32;
        let f = Function {
            name: "bump".into(),
            blocks: vec![Block {
                insns: vec![
                    Insn::MovImm32 {
                        rd: Reg::R1,
                        imm: addr,
                    },
                    Insn::Ldr {
                        rd: Reg::R2,
                        base: Reg::R1,
                        offset: Operand::Imm(0),
                    },
                    Insn::Alu {
                        op: AluOp::Add,
                        rd: Reg::R2,
                        rn: Reg::R2,
                        src: Operand::Imm(1),
                    },
                    Insn::Str {
                        rs: Reg::R2,
                        base: Reg::R1,
                        offset: Operand::Imm(0),
                    },
                    Insn::Mov {
                        rd: Reg::R0,
                        src: Operand::Reg(Reg::R2),
                    },
                ],
                terminator: Terminator::Return,
            }],
            loop_bounds: BTreeMap::new(),
            frame_size: 0,
        };
        p.add_function(f);
        let decoded = DecodedProgram::new(&p).expect("decodes");
        let mut engine = decoded.engine();
        let mut dev = NullDevice::new();
        assert_eq!(
            engine
                .call("bump", &[], &mut dev)
                .expect("run")
                .return_value,
            101
        );
        assert_eq!(
            engine
                .call("bump", &[], &mut dev)
                .expect("run")
                .return_value,
            102
        );
        assert_eq!(engine.read_global("g", 0), Some(102));
        engine.reset_data();
        assert_eq!(engine.read_global("g", 0), Some(100));
    }

    #[test]
    fn traps_match_reference() {
        // Misaligned load.
        let mut p = Program::new();
        let f = Function {
            name: "bad".into(),
            blocks: vec![Block {
                insns: vec![Insn::Ldr {
                    rd: Reg::R0,
                    base: Reg::R1,
                    offset: Operand::Imm(2),
                }],
                terminator: Terminator::Return,
            }],
            loop_bounds: BTreeMap::new(),
            frame_size: 0,
        };
        p.add_function(f);
        differential(&p, "bad", &[]);
        differential(&p, "ghost", &[]);
        differential(&p, "bad", &[0; 7]);

        // Cycle limit on an infinite loop.
        let mut spin = Program::new();
        let f = Function {
            name: "spin".into(),
            blocks: vec![Block::empty(Terminator::Branch(BlockId(0)))],
            loop_bounds: BTreeMap::new(),
            frame_size: 0,
        };
        spin.add_function(f);
        let decoded = DecodedProgram::new(&spin).expect("decodes");
        let mut engine = decoded.engine();
        engine.set_max_cycles(1_000);
        assert_eq!(
            engine.call("spin", &[], &mut NullDevice::new()),
            Err(MachineError::CycleLimit)
        );
    }

    #[test]
    fn ports_drive_the_same_device_traffic() {
        let mut p = Program::new();
        let f = Function {
            name: "echo".into(),
            blocks: vec![Block {
                insns: vec![
                    Insn::In {
                        rd: Reg::R0,
                        port: 4,
                    },
                    Insn::Alu {
                        op: AluOp::Add,
                        rd: Reg::R0,
                        rn: Reg::R0,
                        src: Operand::Imm(1),
                    },
                    Insn::Out {
                        rs: Reg::R0,
                        port: 9,
                    },
                ],
                terminator: Terminator::Return,
            }],
            loop_bounds: BTreeMap::new(),
            frame_size: 0,
        };
        p.add_function(f);
        let decoded = DecodedProgram::new(&p).expect("decodes");
        let mut engine = decoded.engine();
        let mut dev = RecordingDevice::new();
        dev.queue(4, [10]);
        let r = engine.call("echo", &[], &mut dev).expect("run");
        assert_eq!(r.return_value, 11);
        assert_eq!(dev.outputs, vec![(9, 11)]);
    }

    #[test]
    fn leon3_models_also_match_bitwise() {
        let p = fib_program();
        let cm = CycleModel::leon3();
        let em = GroundTruthEnergy::leon3();
        let mut reference = Machine::with_models(p.clone(), cm.clone(), em.clone()).expect("loads");
        let decoded = DecodedProgram::with_models(&p, &cm, &em).expect("decodes");
        let mut engine = decoded.engine();
        let want = reference
            .call("fib", &[10], &mut NullDevice::new())
            .expect("run");
        let got = engine
            .call("fib", &[10], &mut NullDevice::new())
            .expect("run");
        assert_eq!(want, got);
        assert_eq!(want.energy_pj.to_bits(), got.energy_pj.to_bits());
    }
}
