//! The pre-decoded execution engine.
//!
//! [`crate::machine::Machine`] walks the CFG directly and pays full
//! interpreter tax on every step: an [`teamplay_isa::Operand`] match, a
//! block-vector indirection, an energy-table call through `Option`
//! branching. This module lowers a validated program **once** into
//! [`DecodedProgram`] — the flat [`teamplay_isa::DecodedImage`] op array
//! zipped with a parallel `OpCost` array that bakes in every per-op
//! cycle and energy constant — and executes it with [`DecodedEngine`], a
//! direct-threaded dispatch loop whose per-step work is one `match` on a
//! unit of one or more ops plus a handful of array indexes. No `HashMap`,
//! no name lookup, no per-step cost-model call survives into the hot
//! loop.
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
//! # Pausing, snapshots and dirty pages
//!
//! The same limit lets a call stop at a run entry and go on later: the
//! run core takes its call state (pc, call stack, cycles, instructions,
//! class counts and the energy sum as a whole run holds it there) from a
//! `RunState` and hands it back when the call reaches its pause cycle,
//! completes or traps. A paused and resumed call returns what the
//! uninterrupted call returns, to the last bit. Fault campaigns pause
//! their golden run to record snapshots of the whole engine, restore one
//! to start an injection past the fault-free prefix, and pause faulted
//! runs to compare them with later snapshots.
//!
//! Every store marks its 4 KiB page in a per-engine dirty map, one
//! unconditional byte store. A reset rewrites only the dirty pages, a
//! snapshot keeps only the words of dirty pages that differ from the
//! initial image, and a comparison looks only at pages either side may
//! have changed. A fresh engine relies on its zeroed allocation and
//! writes only the pages that hold globals.
//!
//! # Superinstruction fusion
//!
//! Dispatch — the indirect branch per slot — dominates once per-op work
//! is this small, so decode tiles the op array into fused *units* that
//! retire several guest ops per dispatch. Every fused unit is one row
//! `Name = Left + Right` of the fusion table, naming two smaller units
//! or base ops; the unit's type, width, merge rule and dispatch arm are
//! all generated from that row, so adding a unit means adding a row.
//! Each base op's semantics is written once, as a step that the fast
//! loop's base arms, the careful loop and every fused unit share.
//!
//! Tiling runs in two phases. Round 1 pairs adjacent base ops left to
//! right, except that a compare feeding the conditional branch right
//! behind it is left for the compare+branch row. Then a fixpoint of
//! merges lets a fused unit absorb the unit after it whenever the table
//! has a row for the two; chains grow by one row per round, into
//! megaops of up to 13 ops that cover the app kernels' hot loop bodies.
//! Fusion is pc-stable: a unit lives in its first op's slot, no unit
//! crosses a block start, and a unit that ends in a control op charges
//! the run aggregate recorded at that op's own slot, `pc + width - 1`.
//! The dispatch table is padded to a power of two so the fetch is a
//! masked (provably in-bounds) index.
//!
//! Within a unit the decoder's static knowledge pays once more: each
//! micro-op hands its result to the next, so an operand that is the
//! previous micro-op's destination takes the just-computed value instead
//! of re-reading the register file, and a load from the address the
//! previous micro-op stored to takes the stored word. Both are exact by
//! construction, and both are transformations LLVM cannot make through
//! a dynamically-indexed register array.
//!
//! Net effect on the four app kernels (single thread, `sim_throughput`
//! bench, recorded in `BENCH_sim.json`): ~0.88–0.95 G simulated
//! cycles/sec vs the reference's ~0.18–0.20 G, a 4.5–4.9× speedup,
//! floored at `speedup ≥ 1` by `support/ci/validate_bench.py`.

use crate::fault::{FaultKind, FaultSpec};
use crate::machine::{
    zeroed_mem, MachineError, RunResult, DEFAULT_MAX_CYCLES, MAX_CALL_DEPTH, MEM_WORDS,
};
use crate::ports::PortDevice;
use crate::truth::GroundTruthEnergy;
use std::sync::Mutex;
use teamplay_isa::{
    decode_program, AluOp, Cond, CycleModel, DataLayout, DecodedImage, DecodedOp, EnergyClass,
    Insn, Program, Reg, RegListRef, DATA_BASE, ENERGY_CLASS_COUNT, MEMORY_BYTES, STACK_TOP,
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
struct OpCost {
    /// Cycles charged (taken outcome for conditional branches).
    cyc: u64,
    /// Cycles charged on the not-taken outcome.
    cyc_nt: u64,
    /// `EnergyClass::index()` of the op.
    class: u8,
    /// Full energy increment (pJ): `((base [+ overhead]) [+ stack]) +
    /// leakage·cyc`, combined at decode time in the reference f64 order.
    inc_pj: f64,
    /// The not-taken-outcome increment (uses `cyc_nt` leakage).
    inc_nt_pj: f64,
}

/// One careful-loop slot: the op and its baked costs side by side, so
/// the loop touches a single array (one bounds check, one cache stream)
/// per step.
#[derive(Clone, Copy)]
struct Step {
    op: DecodedOp,
    cost: OpCost,
}

type Mem = [i32; MEM_WORDS];

/// Words per page of the dirty map: 4 KiB pages.
const PAGE_WORDS: usize = 1024;
/// Pages of memory.
const PAGES: usize = MEM_WORDS / PAGE_WORDS;
/// One flag per page, set by every store to it: the pages a reset must
/// restore.
type Dirty = [bool; PAGES];
/// The initial content of every page that holds no global.
static ZERO_PAGE: [i32; PAGE_WORDS] = [0; PAGE_WORDS];

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

/// Engine-local store; see [`ld`]. It marks the word's page dirty with
/// one unconditional byte store.
#[inline(always)]
fn st(mem: &mut Mem, dirty: &mut Dirty, addr: u32, value: i32) -> Result<(), MachineError> {
    if !addr.is_multiple_of(4) | (addr >= MEMORY_BYTES) {
        return Err(mem_fault(addr));
    }
    let word = (addr / 4) as usize & (MEM_WORDS - 1);
    dirty[word / PAGE_WORDS] = true;
    mem[word] = value;
    Ok(())
}

/// A condition pre-decoded into the set of comparison outcomes it
/// accepts: bit `o + 1` for `o = a.cmp(&b) as i8`. Testing it is a shift
/// and a mask, so a conditional op costs no jump on the condition code.
#[derive(Clone, Copy)]
struct CondMask(u8);

impl CondMask {
    fn of(cond: Cond) -> CondMask {
        // One representative comparison per outcome: less, equal, greater.
        let accepts = [(0, 1), (0, 0), (1, 0)].map(|(a, b)| cond.holds(a, b));
        CondMask(
            accepts
                .iter()
                .enumerate()
                .map(|(bit, &holds)| u8::from(holds) << bit)
                .sum(),
        )
    }

    #[inline(always)]
    fn holds(self, (a, b): (i32, i32)) -> bool {
        (self.0 >> (a.cmp(&b) as i8 + 1)) & 1 != 0
    }
}

/// What one micro-op of a unit hands to the next: the register it wrote
/// and the value, or the address it stored to and the word. Taking an
/// operand from here is exact — it is precisely what re-reading the
/// register file or memory would yield — but it takes the host's
/// store-to-load latency off the dependency chain (the compiler cannot
/// do this itself: the dynamic register indices might alias).
#[derive(Clone, Copy)]
struct Fwd {
    /// The register written, masked; [`NO_REG`] if none.
    reg: u8,
    val: i32,
    /// The address stored to; [`NO_ADDR`] if none.
    addr: u64,
}

/// Never equal to a masked register index.
const NO_REG: u8 = 16;
/// Never equal to a widened `u32` address.
const NO_ADDR: u64 = u64::MAX;

impl Fwd {
    /// Nothing to forward: a unit's first micro-op, or the one after an
    /// op that wrote neither a register nor memory. Every test against it
    /// folds away at compile time.
    const NONE: Fwd = Fwd {
        reg: NO_REG,
        val: 0,
        addr: NO_ADDR,
    };
}

/// The machine state micro-ops act on. Every register index is masked
/// with `& 15` at use, so `u8` operand fields stay bounds-check-free.
struct Core<'a> {
    regs: &'a mut [i32; 16],
    mem: &'a mut Mem,
    dirty: &'a mut Dirty,
    flags: &'a mut (i32, i32),
    reg_pool: &'a [Reg],
    device: &'a mut dyn PortDevice,
}

impl Core<'_> {
    /// Register `r`, taken from `fwd` if the previous micro-op wrote it.
    #[inline(always)]
    fn get(&self, r: u8, fwd: Fwd) -> i32 {
        if r & 15 == fwd.reg {
            fwd.val
        } else {
            self.regs[r as usize & 15]
        }
    }

    #[inline(always)]
    fn set(&mut self, r: u8, val: i32) -> Fwd {
        self.regs[r as usize & 15] = val;
        Fwd {
            reg: r & 15,
            val,
            addr: NO_ADDR,
        }
    }

    /// The word at `addr`, taken from `fwd` if the previous micro-op
    /// stored there: a valid store to `addr` proves the load valid and
    /// that it yields the stored word.
    #[inline(always)]
    fn load(&self, addr: u32, fwd: Fwd) -> Result<i32, MachineError> {
        if u64::from(addr) == fwd.addr {
            Ok(fwd.val)
        } else {
            ld(self.mem, addr)
        }
    }

    #[inline(always)]
    fn store(&mut self, addr: u32, val: i32) -> Result<Fwd, MachineError> {
        st(self.mem, self.dirty, addr, val)?;
        Ok(Fwd {
            reg: NO_REG,
            val,
            addr: u64::from(addr),
        })
    }
}

/// Where control goes after a unit.
#[derive(Clone, Copy)]
enum Exit {
    /// On to the next slot, with the last micro-op's result.
    Next(Fwd),
    /// The unit's control op ended the run. `taken` picks which outcome
    /// of the run aggregate to charge (always `true` for a `Branch`).
    Jump { to: u32, taken: bool },
}

/// One dispatch of the fast loop: a base op, or a fused sequence of them.
trait Unit: Copy {
    /// Guest ops (slots) covered.
    const WIDTH: usize;
    /// Whether the last op is a control op, which ends the run.
    const ENDS_RUN: bool;
    /// Run every micro-op in order; the first one receives `fwd`.
    fn run(&self, core: &mut Core<'_>, fwd: Fwd) -> Result<Exit, MachineError>;
}

/// A straight-line base op's semantics, written once for every path
/// that executes it. `fwd` is the previous micro-op's result.
trait Op: Copy {
    fn step(&self, core: &mut Core<'_>, fwd: Fwd) -> Result<Fwd, MachineError>;
}

impl<T: Op> Unit for T {
    const WIDTH: usize = 1;
    const ENDS_RUN: bool = false;
    #[inline(always)]
    fn run(&self, core: &mut Core<'_>, fwd: Fwd) -> Result<Exit, MachineError> {
        self.step(core, fwd).map(Exit::Next)
    }
}

/// Two units run back to back as one. The fusion table's row
/// `Name = Left + Right` is the unit `Fuse<Left, Right>`.
#[derive(Clone, Copy)]
struct Fuse<A, B>(A, B);

impl<A: Unit, B: Unit> Unit for Fuse<A, B> {
    const WIDTH: usize = {
        assert!(!A::ENDS_RUN, "only a unit's last op may end its run");
        A::WIDTH + B::WIDTH
    };
    const ENDS_RUN: bool = B::ENDS_RUN;
    #[inline(always)]
    fn run(&self, core: &mut Core<'_>, fwd: Fwd) -> Result<Exit, MachineError> {
        match self.0.run(core, fwd)? {
            Exit::Next(fwd) => self.1.run(core, fwd),
            jump => Ok(jump),
        }
    }
}

// The base ops' operands, as in `DecodedOp`. Operands wider than a byte
// are packed, so fused units nest without padding and the largest keeps
// the dispatch slot within 76 bytes. Units run by reference: each packed
// field is read where it is used, straight from the dispatch table.

/// `rd = rn <op> rm`.
#[derive(Clone, Copy)]
struct AluRR {
    op: AluOp,
    rd: u8,
    rn: u8,
    rm: u8,
}

/// `rd = rn <op> imm`.
#[derive(Clone, Copy)]
#[repr(C, packed)]
struct AluRI {
    op: AluOp,
    rd: u8,
    rn: u8,
    imm: i32,
}

/// Register move.
#[derive(Clone, Copy)]
struct MovR {
    rd: u8,
    rm: u8,
}

/// Immediate move (`MovI` and `MovI32`: their difference is a cost,
/// which the decoder bakes separately).
#[derive(Clone, Copy)]
#[repr(C, packed)]
struct MovI {
    rd: u8,
    imm: i32,
}

/// Compare two registers and latch the flags.
#[derive(Clone, Copy)]
struct CmpR {
    rn: u8,
    rm: u8,
}

/// Compare a register with an immediate and latch the flags.
#[derive(Clone, Copy)]
#[repr(C, packed)]
struct CmpI {
    rn: u8,
    imm: i32,
}

/// Conditional select on the latched flags.
#[derive(Clone, Copy)]
struct Csel {
    cond: CondMask,
    rd: u8,
    rt: u8,
    rf: u8,
}

/// `rd = mem[base + roff]`.
#[derive(Clone, Copy)]
struct LdrR {
    rd: u8,
    base: u8,
    roff: u8,
}

/// `rd = mem[base + imm]`.
#[derive(Clone, Copy)]
#[repr(C, packed)]
struct LdrI {
    rd: u8,
    base: u8,
    imm: i32,
}

/// `mem[base + roff] = rs`.
#[derive(Clone, Copy)]
struct StrR {
    rs: u8,
    base: u8,
    roff: u8,
}

/// `mem[base + imm] = rs`.
#[derive(Clone, Copy)]
#[repr(C, packed)]
struct StrI {
    rs: u8,
    base: u8,
    imm: i32,
}

/// Push the pooled register list (ascending order).
#[derive(Clone, Copy)]
struct Push {
    list: RegListRef,
}

/// Pop the pooled register list (reverse of push).
#[derive(Clone, Copy)]
struct Pop {
    list: RegListRef,
}

/// Port input into `rd`.
#[derive(Clone, Copy)]
struct In {
    rd: u8,
    port: u8,
}

/// Port output from `rs`.
#[derive(Clone, Copy)]
struct Out {
    rs: u8,
    port: u8,
}

/// One idle cycle.
#[derive(Clone, Copy)]
struct Nop;

/// Unconditional jump.
#[derive(Clone, Copy)]
#[repr(C, packed)]
struct Branch {
    target: u32,
}

/// Two-way jump on the latched flags.
#[derive(Clone, Copy)]
#[repr(C, packed)]
struct CondBranch {
    cond: CondMask,
    taken: u32,
    fallthrough: u32,
}

impl Op for AluRR {
    #[inline(always)]
    fn step(&self, core: &mut Core<'_>, fwd: Fwd) -> Result<Fwd, MachineError> {
        let v = self.op.eval(core.get(self.rn, fwd), core.get(self.rm, fwd));
        Ok(core.set(self.rd, v))
    }
}

impl Op for AluRI {
    #[inline(always)]
    fn step(&self, core: &mut Core<'_>, fwd: Fwd) -> Result<Fwd, MachineError> {
        let v = self.op.eval(core.get(self.rn, fwd), self.imm);
        Ok(core.set(self.rd, v))
    }
}

impl Op for MovR {
    #[inline(always)]
    fn step(&self, core: &mut Core<'_>, fwd: Fwd) -> Result<Fwd, MachineError> {
        let v = core.get(self.rm, fwd);
        Ok(core.set(self.rd, v))
    }
}

impl Op for MovI {
    #[inline(always)]
    fn step(&self, core: &mut Core<'_>, _: Fwd) -> Result<Fwd, MachineError> {
        Ok(core.set(self.rd, self.imm))
    }
}

impl Op for CmpR {
    #[inline(always)]
    fn step(&self, core: &mut Core<'_>, fwd: Fwd) -> Result<Fwd, MachineError> {
        *core.flags = (core.get(self.rn, fwd), core.get(self.rm, fwd));
        Ok(Fwd::NONE)
    }
}

impl Op for CmpI {
    #[inline(always)]
    fn step(&self, core: &mut Core<'_>, fwd: Fwd) -> Result<Fwd, MachineError> {
        *core.flags = (core.get(self.rn, fwd), self.imm);
        Ok(Fwd::NONE)
    }
}

impl Op for Csel {
    #[inline(always)]
    fn step(&self, core: &mut Core<'_>, fwd: Fwd) -> Result<Fwd, MachineError> {
        let v = if self.cond.holds(*core.flags) {
            core.get(self.rt, fwd)
        } else {
            core.get(self.rf, fwd)
        };
        Ok(core.set(self.rd, v))
    }
}

impl Op for LdrR {
    #[inline(always)]
    fn step(&self, core: &mut Core<'_>, fwd: Fwd) -> Result<Fwd, MachineError> {
        let addr = (core.get(self.base, fwd) as u32).wrapping_add(core.get(self.roff, fwd) as u32);
        let v = core.load(addr, fwd)?;
        Ok(core.set(self.rd, v))
    }
}

impl Op for LdrI {
    #[inline(always)]
    fn step(&self, core: &mut Core<'_>, fwd: Fwd) -> Result<Fwd, MachineError> {
        let addr = (core.get(self.base, fwd) as u32).wrapping_add(self.imm as u32);
        let v = core.load(addr, fwd)?;
        Ok(core.set(self.rd, v))
    }
}

impl Op for StrR {
    #[inline(always)]
    fn step(&self, core: &mut Core<'_>, fwd: Fwd) -> Result<Fwd, MachineError> {
        let addr = (core.get(self.base, fwd) as u32).wrapping_add(core.get(self.roff, fwd) as u32);
        let v = core.get(self.rs, fwd);
        core.store(addr, v)
    }
}

impl Op for StrI {
    #[inline(always)]
    fn step(&self, core: &mut Core<'_>, fwd: Fwd) -> Result<Fwd, MachineError> {
        let addr = (core.get(self.base, fwd) as u32).wrapping_add(self.imm as u32);
        let v = core.get(self.rs, fwd);
        core.store(addr, v)
    }
}

impl Op for Push {
    #[inline(always)]
    fn step(&self, core: &mut Core<'_>, _: Fwd) -> Result<Fwd, MachineError> {
        let sp = Reg::SP.index() & 15;
        let (start, len) = (self.list.start as usize, self.list.len as usize);
        for r in &core.reg_pool[start..start + len] {
            let top = (core.regs[sp] as u32).wrapping_sub(4);
            core.regs[sp] = top as i32;
            st(core.mem, core.dirty, top, core.regs[r.index() & 15])?;
        }
        Ok(Fwd::NONE)
    }
}

impl Op for Pop {
    #[inline(always)]
    fn step(&self, core: &mut Core<'_>, _: Fwd) -> Result<Fwd, MachineError> {
        let sp = Reg::SP.index() & 15;
        let (start, len) = (self.list.start as usize, self.list.len as usize);
        for r in core.reg_pool[start..start + len].iter().rev() {
            let top = core.regs[sp] as u32;
            core.regs[r.index() & 15] = ld(core.mem, top)?;
            core.regs[sp] = top.wrapping_add(4) as i32;
        }
        Ok(Fwd::NONE)
    }
}

impl Op for In {
    #[inline(always)]
    fn step(&self, core: &mut Core<'_>, _: Fwd) -> Result<Fwd, MachineError> {
        let v = core.device.input(self.port);
        Ok(core.set(self.rd, v))
    }
}

impl Op for Out {
    #[inline(always)]
    fn step(&self, core: &mut Core<'_>, fwd: Fwd) -> Result<Fwd, MachineError> {
        let v = core.get(self.rs, fwd);
        core.device.output(self.port, v);
        Ok(Fwd::NONE)
    }
}

impl Op for Nop {
    #[inline(always)]
    fn step(&self, _: &mut Core<'_>, _: Fwd) -> Result<Fwd, MachineError> {
        Ok(Fwd::NONE)
    }
}

impl Unit for Branch {
    const WIDTH: usize = 1;
    const ENDS_RUN: bool = true;
    #[inline(always)]
    fn run(&self, _: &mut Core<'_>, _: Fwd) -> Result<Exit, MachineError> {
        Ok(Exit::Jump {
            to: self.target,
            taken: true,
        })
    }
}

impl Unit for CondBranch {
    const WIDTH: usize = 1;
    const ENDS_RUN: bool = true;
    #[inline(always)]
    fn run(&self, core: &mut Core<'_>, _: Fwd) -> Result<Exit, MachineError> {
        let cond = self.cond;
        Ok(if cond.holds(*core.flags) {
            Exit::Jump {
                to: self.taken,
                taken: true,
            }
        } else {
            Exit::Jump {
                to: self.fallthrough,
                taken: false,
            }
        })
    }
}

/// The fusion table: `base` lists the units every row builds from, and
/// each row `Name = Left + Right` declares the fused unit
/// `Fuse<Left, Right>`. Rows of two base ops form in round 1 of the
/// tiling, rows with a fused left side in the merge fixpoint. Passes the
/// table to the macro `$then`, which generates code from it.
macro_rules! fusion_table {
    ($then:ident) => {
        $then! {
            base: AluRR AluRI MovR MovI CmpR CmpI Csel LdrR LdrI StrR StrI
                Push Pop In Out Nop Branch CondBranch;
            // Round 1: the dynamically dominant adjacent pairs of the app
            // kernels.
            StrILdrI = StrI + LdrI;
            LdrIStrI = LdrI + StrI;
            LdrILdrI = LdrI + LdrI;
            LdrIAluRI = LdrI + AluRI;
            LdrIAluRR = LdrI + AluRR;
            LdrIMovI = LdrI + MovI;
            LdrICmpI = LdrI + CmpI;
            AluRILdrI = AluRI + LdrI;
            AluRIStrI = AluRI + StrI;
            AluRIAluRR = AluRI + AluRR;
            AluRRLdrI = AluRR + LdrI;
            AluRRStrI = AluRR + StrI;
            MovILdrI = MovI + LdrI;
            MovIMovI = MovI + MovI;
            MovICmpR = MovI + CmpR;
            MovICsel = MovI + Csel;
            CselStrI = Csel + StrI;
            CmpRMovI = CmpR + MovI;
            StrIMovI = StrI + MovI;
            StrIMovR = StrI + MovR;
            MovRAluRI = MovR + AluRI;
            CmpICondBranch = CmpI + CondBranch;
            CmpRCondBranch = CmpR + CondBranch;
            StrIBranch = StrI + Branch;
            // Merges of two pairs into a quad, or of a pair and a
            // trailing branch into a triple.
            QLdrMovCmpRMov = LdrIMovI + CmpRMovI;
            QCmpRMovMovCsel = CmpRMovI + MovICsel;
            QMovCselStrLdr = MovICsel + StrILdrI;
            QStrLdrCmpICb = StrILdrI + CmpICondBranch;
            QLdrAluRIStrLdr = LdrIAluRI + StrILdrI;
            QAluRIAluRRLdrStr = AluRIAluRR + LdrIStrI;
            QMovLdrAluRIAluRR = MovILdrI + AluRIAluRR;
            QStrLdrStrBr = StrILdrI + StrIBranch;
            QStrLdrAluRIStr = StrILdrI + AluRIStrI;
            QLdrMovAluRRStr = LdrIMovI + AluRRStrI;
            QAluRRStrLdrStr = AluRRStrI + LdrIStrI;
            QAluRRStrLdrMov = AluRRStrI + LdrIMovI;
            QAluRRStrLdrAluRI = AluRRStrI + LdrIAluRI;
            QLdrStrLdrAluRI = LdrIStrI + LdrIAluRI;
            QAluRILdrAluRIAluRR = AluRILdrI + AluRIAluRR;
            QAluRRLdrStrLdr = AluRRLdrI + StrILdrI;
            QLdrLdrAluRRStr = LdrILdrI + AluRRStrI;
            QLdrStrLdrLdr = LdrIStrI + LdrILdrI;
            QStrLdrLdrAluRR = StrILdrI + LdrIAluRR;
            TLdrStrBr = LdrIStrI + Branch;
            // Megaops: each covers a whole measured hot chain, so the
            // dominant loop bodies retire in one or two dispatches.
            OLdrMovCmpRMovCselStrLdr = QLdrMovCmpRMov + QMovCselStrLdr;
            DLdrMovCmpRMovCselStrLdrCmpICb = OLdrMovCmpRMovCselStrLdr + CmpICondBranch;
            SLdrAluRIStrLdrStrBr = QLdrAluRIStrLdr + StrIBranch;
            SLdrMovAluRRStrLdrStrBr = QLdrMovAluRRStr + TLdrStrBr;
            OLdrMovAluRRStrLdrMovCmpRMov = QLdrMovAluRRStr + QLdrMovCmpRMov;
            SMovCselStrLdrCmpICb = QMovCselStrLdr + CmpICondBranch;
            OLdrStrLdrAluRIStrLdrStrBr = QLdrStrLdrAluRI + QStrLdrStrBr;
            OMovLdrAluRIAluRRLdrStrLdrLdr = QMovLdrAluRIAluRR + QLdrStrLdrLdr;
            OLdrStrLdrLdrAluRRStrLdrAluRI = QLdrStrLdrLdr + QAluRRStrLdrAluRI;
            SAluRRStrLdrAluRIStrMovR = QAluRRStrLdrAluRI + StrIMovR;
            WLdrAluRIStrLdrMov = QLdrAluRIStrLdr + MovI;
            WAluRRStrLdrStrBr = QAluRRStrLdrStr + Branch;
            SLdrAluRIStrLdrAluRIStr = QLdrAluRIStrLdr + AluRIStrI;
            SLdrAluRRStrLdrAluRIStr = LdrIAluRR + QStrLdrAluRIStr;
            SLdrAluRIAluRRLdrStrLdr = LdrIAluRI + QAluRRLdrStrLdr;
            SMovLdrAluRIAluRRLdrStr = QMovLdrAluRIAluRR + LdrIStrI;
            SAluRILdrAluRIAluRRLdrStr = QAluRILdrAluRIAluRR + LdrIStrI;
            OMovLdrAluRIAluRRLdrStrLdrAluRI = QMovLdrAluRIAluRR + QLdrStrLdrAluRI;
            OLdrLdrAluRRStrMovLdrAluRIAluRR = QLdrLdrAluRRStr + QMovLdrAluRIAluRR;
            OCmpRMovMovCselStrLdrCmpICb = QCmpRMovMovCsel + QStrLdrCmpICb;
            XLdrAluRIStrLdrMovAluRRStrLdrStrBr = WLdrAluRIStrLdrMov + WAluRRStrLdrStrBr;
            XLdrAluRIStrLdrAluRIStrLdrMovAluRRStrLdrStrBr =
                SLdrAluRIStrLdrAluRIStr + SLdrMovAluRRStrLdrStrBr;
        }
    };
}

/// Generates the fused unit types, [`HotOp`], its widths and the merge
/// rule from the fusion table.
macro_rules! hot_ops {
    (base: $($base:ident)*; $($name:ident = $left:ident + $right:ident;)*) => {
        $(type $name = Fuse<$left, $right>;)*

        /// Fast-loop opcode: every base op as a unit of its own, plus one
        /// variant per row of the fusion table. A fused unit retires its
        /// whole op sequence in one dispatch — two ops for a round-1
        /// pair, up to 13 for the largest megaop.
        ///
        /// Fusion is **pc-stable**: a unit lives in its *first* op's slot
        /// and its arm advances `pc` by its width; the absorbed slots keep
        /// their un-fused forms. A unit never continues past a block
        /// start, so control flow can never land mid-unit — every entry
        /// point (function entries, branch/call targets, post-call resume
        /// sites) dispatches exactly the ops the reference would.
        #[derive(Clone, Copy)]
        enum HotOp {
            $($base($base),)*
            Call(u32),
            Ret,
            Halt,
            $($name($name),)*
        }

        /// Slots covered by one unit.
        fn hot_width(op: &HotOp) -> usize {
            match op {
                $(HotOp::$name(_) => <$name as Unit>::WIDTH,)*
                _ => 1,
            }
        }

        /// The unit that `a` followed by `b` merges into, if the table
        /// has a row for the two.
        fn merge(a: &HotOp, b: &HotOp) -> Option<HotOp> {
            Some(match (a, b) {
                $((HotOp::$left(l), HotOp::$right(r)) => HotOp::$name(Fuse(*l, *r)),)*
                _ => return None,
            })
        }

        /// Run one base unit from a standing start (the careful loop's
        /// path; it runs `Call`, `Ret` and `Halt` itself).
        #[inline(always)]
        fn run_base(op: &HotOp, core: &mut Core<'_>) -> Result<Exit, MachineError> {
            match op {
                $(HotOp::$base(u) => u.run(core, Fwd::NONE),)*
                _ => unreachable!("not a base unit"),
            }
        }

        #[cfg(test)]
        impl HotOp {
            fn name(&self) -> &'static str {
                match self {
                    $(HotOp::$base(_) => stringify!($base),)*
                    HotOp::Call(_) => "Call",
                    HotOp::Ret => "Ret",
                    HotOp::Halt => "Halt",
                    $(HotOp::$name(_) => stringify!($name),)*
                }
            }
        }

        /// `[name, left, right]` per row.
        #[cfg(test)]
        const FUSION_ROWS: &[[&str; 3]] =
            &[$([stringify!($name), stringify!($left), stringify!($right)],)*];
    };
}

fusion_table!(hot_ops);

/// Lower one base op to its unit.
fn hot_base(op: DecodedOp) -> HotOp {
    use DecodedOp as D;
    use HotOp as H;
    match op {
        D::AluRR { op, rd, rn, rm } => H::AluRR(AluRR { op, rd, rn, rm }),
        D::AluRI { op, rd, rn, imm } => H::AluRI(AluRI { op, rd, rn, imm }),
        D::MovR { rd, rm } => H::MovR(MovR { rd, rm }),
        D::MovI { rd, imm } | D::MovI32 { rd, imm } => H::MovI(MovI { rd, imm }),
        D::CmpR { rn, rm } => H::CmpR(CmpR { rn, rm }),
        D::CmpI { rn, imm } => H::CmpI(CmpI { rn, imm }),
        D::Csel { cond, rd, rt, rf } => H::Csel(Csel {
            cond: CondMask::of(cond),
            rd,
            rt,
            rf,
        }),
        D::LdrR { rd, base, roff } => H::LdrR(LdrR { rd, base, roff }),
        D::LdrI { rd, base, imm } => H::LdrI(LdrI { rd, base, imm }),
        D::StrR { rs, base, roff } => H::StrR(StrR { rs, base, roff }),
        D::StrI { rs, base, imm } => H::StrI(StrI { rs, base, imm }),
        D::Push { list } => H::Push(Push { list }),
        D::Pop { list } => H::Pop(Pop { list }),
        D::Call { target } => H::Call(target),
        D::In { rd, port } => H::In(In { rd, port }),
        D::Out { rs, port } => H::Out(Out { rs, port }),
        D::Nop => H::Nop(Nop),
        D::Branch { target } => H::Branch(Branch { target }),
        D::CondBranch {
            cond,
            taken,
            fallthrough,
        } => H::CondBranch(CondBranch {
            cond: CondMask::of(cond),
            taken,
            fallthrough,
        }),
        D::Ret => H::Ret,
        D::Halt => H::Halt,
    }
}

/// Tile the flat op array into units: round 1 pairs adjacent base ops
/// left to right, then a fixpoint of merges grows the chains. A unit is
/// only formed when its continuation slot is not a block start (no
/// control transfer can land mid-unit; see [`HotOp`]).
fn fuse_ops(ops: &[DecodedOp], is_block_start: &[bool]) -> Vec<HotOp> {
    let mut hot: Vec<HotOp> = ops.iter().map(|op| hot_base(*op)).collect();
    // Round 1: adjacent base-op pairs.
    let mut i = 0;
    while i + 1 < ops.len() {
        // Is ops[i + 1] a compare that feeds the conditional branch at
        // ops[i + 2]? Then leave it for the compare+branch row, which is
        // worth strictly more.
        let cmp_reserved = matches!(ops[i + 1], DecodedOp::CmpI { .. } | DecodedOp::CmpR { .. })
            && i + 2 < ops.len()
            && !is_block_start[i + 2]
            && matches!(ops[i + 2], DecodedOp::CondBranch { .. });
        if !is_block_start[i + 1] && !cmp_reserved {
            if let Some(unit) = merge(&hot[i], &hot[i + 1]) {
                hot[i] = unit;
                i += 2;
                continue;
            }
        }
        i += 1;
    }
    // Rounds 2+: walking by unit widths reproduces the previous round's
    // tiling; a fused unit absorbs the next one when the table has a row
    // for the two and no entry point lands on the seam. Chains grow by
    // one row per round, so iterate to a fixpoint.
    loop {
        let mut changed = false;
        let mut i = 0;
        while i < hot.len() {
            let w = hot_width(&hot[i]);
            let j = i + w;
            if w >= 2 && j < hot.len() && !is_block_start[j] {
                if let Some(unit) = merge(&hot[i], &hot[j]) {
                    hot[i] = unit;
                    i += hot_width(&unit);
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
    /// The initial data image, per page: the pages that hold globals
    /// (`None` for the all-zero rest).
    initial: Vec<Option<Box<[i32]>>>,
    /// Bit `r` set if some op reads register `r`, or `r` is `r0`, which
    /// a call returns: the only registers whose value can ever be
    /// observed.
    read_regs: u16,
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
        let shapes = op_shapes(program, cycle_model);
        debug_assert_eq!(shapes.len(), image.ops.len());
        let static_prev = |i: usize| {
            if i == 0 || is_block_start[i] {
                EnergyClass::Branch
            } else {
                shapes[i - 1].class
            }
        };
        let bake = |prev_of: &dyn Fn(usize) -> Option<EnergyClass>| {
            image
                .ops
                .iter()
                .zip(&shapes)
                .enumerate()
                .map(|(i, (op, shape))| Step {
                    op: *op,
                    cost: shape.cost(energy_model, prev_of(i)),
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
        let mut initial: Vec<Option<Box<[i32]>>> = vec![None; PAGES];
        for (name, words) in &program.globals {
            let base = (layout.address(name).expect("layout covers globals") / 4) as usize;
            for (word, &value) in (base..).zip(words) {
                initial[word / PAGE_WORDS].get_or_insert_with(|| ZERO_PAGE.into())
                    [word % PAGE_WORDS] = value;
            }
        }
        let read_regs = read_registers(&image);
        Ok(DecodedProgram {
            image,
            hot,
            steps,
            steps_first,
            exact,
            layout,
            initial,
            read_regs,
        })
    }

    /// The initial content of page `page`.
    fn initial_page(&self, page: usize) -> &[i32] {
        self.initial[page].as_deref().unwrap_or(&ZERO_PAGE)
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

/// A call in progress, stopped at a run entry: everything the rest of
/// the call reads besides registers, flags, memory and the device.
/// [`DecodedEngine::start`] makes one at a function's entry and
/// [`DecodedEngine::resume`] carries it forward.
#[derive(Clone)]
pub(crate) struct RunState {
    pc: u32,
    stack: Vec<u32>,
    cycles: u64,
    insns: u64,
    /// The energy sum as a from-scratch run holds it here (an exact
    /// integer under the exact tables).
    energy_pj: f64,
    counts: [u64; ENERGY_CLASS_COUNT],
}

impl RunState {
    /// Cycles charged so far (after a trap: up to the trapping run).
    pub(crate) fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Equal to the last bit of the energy sum.
    fn same(&self, other: &RunState) -> bool {
        self.pc == other.pc
            && self.stack == other.stack
            && self.cycles == other.cycles
            && self.insns == other.insns
            && self.energy_pj.to_bits() == other.energy_pj.to_bits()
            && self.counts == other.counts
    }
}

/// An engine's whole state at a run entry of a call, as
/// [`DecodedEngine::snapshot`] takes it: the [`RunState`], registers,
/// flags and, per page that differs from the initial image, the span of
/// words that differ.
pub(crate) struct Snapshot {
    state: RunState,
    regs: [i32; 16],
    flags: (i32, i32),
    spans: Vec<Span>,
}

/// Words `offset..offset + words.len()` of page `page`.
struct Span {
    page: usize,
    offset: usize,
    words: Box<[i32]>,
}

impl Snapshot {
    /// Where the call stood.
    pub(crate) fn state(&self) -> &RunState {
        &self.state
    }
}

/// Mutable machine state over a shared [`DecodedProgram`].
///
/// Mirrors [`crate::machine::Machine`]'s contract exactly: each
/// [`DecodedEngine::call`] starts from zeroed registers and cleared
/// flags, only memory persists from one call to the next,
/// [`DecodedEngine::reset_data`] restores the initial image, and state
/// is unspecified after a trap.
///
/// Every store marks its 4 KiB page in a dirty map, so a reset rewrites
/// only the pages written since the last one rather than the whole
/// 1 MiB. The same map lets a fault campaign snapshot the engine at a
/// run entry of its golden run, restore that snapshot and resume the
/// call from there, and compare a faulted run's state against a
/// snapshot.
pub struct DecodedEngine<'p> {
    program: &'p DecodedProgram,
    mem: Box<[i32; MEM_WORDS]>,
    /// Pages written since the last reset: every page that may differ
    /// from the initial image.
    dirty: Dirty,
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
    /// 50 M cycle budget. Memory starts as a zeroed allocation with the
    /// globals' pages written over it.
    pub fn new(program: &'p DecodedProgram) -> DecodedEngine<'p> {
        let mut mem = zeroed_mem();
        for (page, words) in program.initial.iter().enumerate() {
            if let Some(words) = words {
                mem[page * PAGE_WORDS..][..PAGE_WORDS].copy_from_slice(words);
            }
        }
        DecodedEngine {
            program,
            mem,
            dirty: [false; PAGES],
            regs: [0; 16],
            flags: (0, 0),
            max_cycles: DEFAULT_MAX_CYCLES,
            hits_t: vec![0; program.hot.len()],
            hits_nt: vec![0; program.hot.len()],
        }
    }

    /// Change the cycle budget per call.
    pub fn set_max_cycles(&mut self, max_cycles: u64) {
        self.max_cycles = max_cycles;
    }

    /// Restore the initial global-data image and clear the rest of
    /// memory: every page written since the last reset gets its initial
    /// content back, and no other page is touched.
    pub fn reset_data(&mut self) {
        for (page, dirty) in self.dirty.iter_mut().enumerate() {
            if std::mem::take(dirty) {
                self.mem[page * PAGE_WORDS..][..PAGE_WORDS]
                    .copy_from_slice(self.program.initial_page(page));
            }
        }
    }

    /// Back to the state of a fresh engine: initial data image, default
    /// budget.
    fn renew(&mut self) {
        self.reset_data();
        self.max_cycles = DEFAULT_MAX_CYCLES;
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

    /// The engine's state with a call stopped at `at`.
    pub(crate) fn snapshot(&self, at: &RunState) -> Snapshot {
        let spans = (0..PAGES)
            .filter(|&page| self.dirty[page])
            .filter_map(|page| {
                let words = &self.mem[page * PAGE_WORDS..][..PAGE_WORDS];
                let span = differing_span(words, self.program.initial_page(page))?;
                Some(Span {
                    page,
                    offset: span.start,
                    words: words[span].into(),
                })
            })
            .collect();
        Snapshot {
            state: at.clone(),
            regs: self.regs,
            flags: self.flags,
            spans,
        }
    }

    /// Put back a snapshot's registers, flags and memory, and return its
    /// call state to [`DecodedEngine::resume`]: the call then goes on as
    /// it would have from the snapshot, whatever ran on the engine before.
    pub(crate) fn restore(&mut self, snapshot: &Snapshot) -> RunState {
        self.reset_data();
        for span in &snapshot.spans {
            self.mem[span.page * PAGE_WORDS + span.offset..][..span.words.len()]
                .copy_from_slice(&span.words);
            self.dirty[span.page] = true;
        }
        self.regs = snapshot.regs;
        self.flags = snapshot.flags;
        snapshot.state.clone()
    }

    /// Whether the engine, with a call stopped at `at`, is in the state
    /// `snapshot` holds, as far as the rest of the call can tell: call
    /// state, flags, every register the program reads or returns, and
    /// every page either side may have changed.
    pub(crate) fn matches(&self, at: &RunState, snapshot: &Snapshot) -> bool {
        let read = self.program.read_regs;
        let regs_match = (0..16).all(|r| read >> r & 1 == 0 || self.regs[r] == snapshot.regs[r]);
        if !regs_match || !at.same(&snapshot.state) || self.flags != snapshot.flags {
            return false;
        }
        let mut spans = snapshot.spans.iter().peekable();
        (0..PAGES).all(|page| {
            let span = spans.next_if(|s| s.page == page);
            if !self.dirty[page] && span.is_none() {
                return true;
            }
            let words = &self.mem[page * PAGE_WORDS..][..PAGE_WORDS];
            let initial = self.program.initial_page(page);
            match span {
                None => words == initial,
                Some(s) => {
                    let end = s.offset + s.words.len();
                    words[..s.offset] == initial[..s.offset]
                        && words[s.offset..end] == *s.words
                        && words[end..] == initial[end..]
                }
            }
        })
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

    /// A whole call, from its entry with nothing to stop at.
    fn run(
        &mut self,
        func: &str,
        args: &[i32],
        device: &mut dyn PortDevice,
        fault: Option<&FaultSpec>,
    ) -> Result<RunResult, MachineError> {
        let mut at = self.start(func, args)?;
        Ok(self
            .resume(&mut at, device, fault, u64::MAX)?
            .expect("no run entry reaches cycle u64::MAX"))
    }

    /// Begin a call of `func`: the registers take `args` and the stack
    /// pointer, the rest of them and the flags are cleared, and the
    /// returned state stands at the function's entry with nothing charged.
    ///
    /// # Errors
    /// [`MachineError::TooManyArgs`] or [`MachineError::UnknownFunction`].
    pub(crate) fn start(&mut self, func: &str, args: &[i32]) -> Result<RunState, MachineError> {
        if args.len() > 6 {
            return Err(MachineError::TooManyArgs);
        }
        let entry = self
            .program
            .image
            .entry_of(func)
            .ok_or_else(|| MachineError::UnknownFunction(func.into()))?;
        self.regs = [0; 16];
        self.regs[..args.len()].copy_from_slice(args);
        self.regs[Reg::SP.index() & 15] = STACK_TOP as i32;
        self.flags = (0, 0);
        Ok(RunState {
            pc: entry,
            stack: Vec::new(),
            cycles: 0,
            insns: 0,
            energy_pj: 0.0,
            counts: [0; ENERGY_CLASS_COUNT],
        })
    }

    /// Carry the call standing at `at` forward, injecting `fault` if
    /// given, until it completes (`Ok(Some(result))`), traps, or pauses
    /// (`Ok(None)`, with `at` at the pause). It pauses, once no fault is
    /// pending, at the first run entry (the one it starts at included)
    /// whose run reaches cycle `pause_at`: the run's last instruction
    /// boundary is at or past it, or, when the exact tables cannot be
    /// used, its first. So a run entry at exactly `pause_at` is where a
    /// call that gets there pauses. The result is the one an
    /// uninterrupted call would return, however often it paused. After a
    /// trap only `at`'s cycles are meaningful: the cycles charged up to
    /// the run that trapped.
    ///
    /// # Errors
    /// Any [`MachineError`] trap.
    pub(crate) fn resume(
        &mut self,
        at: &mut RunState,
        device: &mut dyn PortDevice,
        fault: Option<&FaultSpec>,
        pause_at: u64,
    ) -> Result<Option<RunResult>, MachineError> {
        let program = self.program;
        let steps: &[Step] = &program.steps;
        let max_cycles = self.max_cycles;
        let mut core = Core {
            regs: &mut self.regs,
            mem: &mut self.mem,
            dirty: &mut self.dirty,
            flags: &mut self.flags,
            reg_pool: &program.image.reg_pool,
            device,
        };

        let mut cycles = at.cycles;
        let mut insns = at.insns;
        let mut energy = at.energy_pj;
        // 16-wide (classes only fill the first ENERGY_CLASS_COUNT slots)
        // so the masked index needs no bounds check.
        let mut counts = [0u64; 16];
        counts[..ENERGY_CLASS_COUNT].copy_from_slice(&at.counts);

        let mut stack = std::mem::take(&mut at.stack);
        let mut pc = at.pc as usize;

        // The careful loop's first fetch of a call reads the
        // no-predecessor cost table; every later fetch reads the
        // static-predecessor one. An unconditional pointer move keeps the
        // swap branch-free.
        let mut tab = if insns == 0 {
            &program.steps_first[..]
        } else {
            steps
        };

        // SEU injection state, as in the reference: the fault fires once,
        // at the first instruction boundary at or past its target cycle,
        // and `skip_armed` carries a pending skip across control ops
        // that end a run without an effect to suppress.
        let mut fault_pending = fault;
        let mut skip_armed = false;
        // The fast path stops before any run whose last in-run boundary
        // reaches `stop`: past the budget (the run traps), at the pause
        // point, or at the fault's target (the run injects). Unfaulted
        // and unpaused, that is the budget alone.
        let limit = max_cycles.saturating_add(1).min(pause_at);
        let mut stop = limit.min(fault.map_or(u64::MAX, |f| f.at_cycle));
        // Whether run entries may take the fast path.
        let fast = program
            .exact
            .as_ref()
            .is_some_and(|ex| max_cycles <= ex.max_budget);

        // `Ok(true)`: the call completed; `Ok(false)`: it paused.
        let outcome: Result<bool, MachineError> = 'engine: loop {
            // Every pass stands at a run entry with no skip armed. Once
            // the fault has fired, pause here if the run starting here
            // reaches the pause cycle: its last boundary (from `pre`) on
            // the fast path, its first in the careful loop.
            if fault_pending.is_none() {
                let reach = match &program.exact {
                    Some(ex) if fast => cycles + ex.pre[pc],
                    _ => cycles,
                };
                if reach >= pause_at {
                    break 'engine Ok(false);
                }
            }

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
            if let Some(ex) = &program.exact {
                if max_cycles <= ex.max_budget && cycles + ex.pre[pc] < stop {
                    let hot: &[HotOp] = &program.hot;
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
                    // cycles current) plus one counter bump on the run's
                    // control-op slot; everything else is folded from the
                    // counters at exit.
                    macro_rules! charge_run {
                        ($slot:expr, $taken:expr) => {{
                            let i = $slot;
                            if $taken {
                                cycles += aggs[i].cyc;
                                hits_t[i] += 1;
                            } else {
                                cycles += aggs[i].cyc_nt;
                                hits_nt[i] += 1;
                            }
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
                            energy = energy_u as f64;
                            break 'engine Ok(true);
                        }};
                    }
                    // After a control transfer: stay on the fast path unless
                    // the next run is doomed.
                    macro_rules! jump {
                        ($to:expr) => {{
                            pc = $to as usize;
                            if cycles + pre[pc] >= stop {
                                break;
                            }
                            continue;
                        }};
                    }
                    // One unit's arm: its micro-ops, then either the next
                    // slot (the shared `pc += 1` below finishes the
                    // advance) or, for a unit ending in a control op, the
                    // charge of the run aggregate at that op's slot.
                    macro_rules! unit {
                        ($u:ident) => {{
                            let last = pc + width_of($u) - 1;
                            match $u.run(&mut core, Fwd::NONE) {
                                Ok(Exit::Next(_)) => pc = last,
                                Ok(Exit::Jump { to, taken }) => {
                                    charge_run!(last, taken);
                                    jump!(to);
                                }
                                Err(e) => break 'engine Err(e),
                            }
                        }};
                    }
                    macro_rules! dispatch {
                        (base: $($base:ident)*; $($name:ident = $left:ident + $right:ident;)*) => {
                            match &hot[pc & hmask] {
                                $(HotOp::$base(u) => unit!(u),)*
                                $(HotOp::$name(u) => unit!(u),)*
                                HotOp::Call(target) => {
                                    charge_run!(pc, true);
                                    if stack.len() >= MAX_CALL_DEPTH {
                                        break 'engine Err(MachineError::CallDepth);
                                    }
                                    stack.push(pc as u32 + 1);
                                    jump!(*target);
                                }
                                HotOp::Ret => {
                                    charge_run!(pc, true);
                                    match stack.pop() {
                                        Some(ret) => jump!(ret),
                                        None => finish_fast!(),
                                    }
                                }
                                HotOp::Halt => {
                                    charge_run!(pc, true);
                                    finish_fast!();
                                }
                            }
                        };
                    }

                    loop {
                        fusion_table!(dispatch);
                        pc += 1;
                    }

                    // Doomed: the budget trips, or the fault fires, inside
                    // the run starting at `pc`, or the run reaches the
                    // pause cycle. After the fold every accumulator equals
                    // the reference's value at this run boundary, so pause
                    // here or continue per-insn.
                    fold_hits!();
                    energy = energy_u as f64;
                    tab = steps;
                    continue 'engine;
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
                ($c:expr, $taken:expr) => {{
                    let taken: bool = $taken;
                    cycles += if taken { $c.cyc } else { $c.cyc_nt };
                    insns += 1;
                    counts[($c.class as usize) & 15] += 1;
                    energy += if taken { $c.inc_pj } else { $c.inc_nt_pj };
                }};
            }
            // Run entries (right after a control op) go back to the top,
            // which pauses or takes the fast path, unless a skip is
            // pending.
            macro_rules! run_entry {
                () => {{
                    if !skip_armed {
                        continue 'engine;
                    }
                    continue;
                }};
            }
            loop {
                if cycles > max_cycles {
                    break 'engine Err(MachineError::CycleLimit);
                }
                if let Some(f) = fault_pending {
                    if cycles >= f.at_cycle {
                        skip_armed = f.kind.strike(core.regs, core.mem);
                        if let FaultKind::MemoryBitFlip { word, .. } = f.kind {
                            core.dirty[word as usize % MEM_WORDS / PAGE_WORDS] = true;
                        }
                        fault_pending = None;
                        stop = limit;
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
                    charge!(c, true);
                    pc += 1;
                    if matches!(step.op, DecodedOp::Call { .. }) {
                        run_entry!();
                    }
                    continue;
                }
                match step.op {
                    DecodedOp::Call { target } => {
                        charge!(c, true);
                        if stack.len() >= MAX_CALL_DEPTH {
                            break 'engine Err(MachineError::CallDepth);
                        }
                        stack.push(pc as u32 + 1);
                        pc = target as usize;
                        run_entry!();
                    }
                    DecodedOp::Ret => {
                        charge!(c, true);
                        match stack.pop() {
                            Some(ret) => {
                                pc = ret as usize;
                                run_entry!();
                            }
                            None => break 'engine Ok(true),
                        }
                    }
                    DecodedOp::Halt => {
                        charge!(c, true);
                        break 'engine Ok(true);
                    }
                    op => match run_base(&hot_base(op), &mut core) {
                        Ok(Exit::Next(_)) => charge!(c, true),
                        Ok(Exit::Jump { to, taken }) => {
                            charge!(c, taken);
                            pc = to as usize;
                            run_entry!();
                        }
                        Err(e) => break 'engine Err(e),
                    },
                }
                pc += 1;
            }
        };

        at.pc = pc as u32;
        at.stack = stack;
        at.cycles = cycles;
        at.insns = insns;
        at.energy_pj = energy;
        at.counts.copy_from_slice(&counts[..ENERGY_CLASS_COUNT]);
        match outcome? {
            true => Ok(Some(RunResult {
                return_value: self.regs[0],
                cycles,
                insns,
                energy_pj: energy,
                class_counts: at.counts,
            })),
            false => Ok(None),
        }
    }
}

/// Engines over one program, recycled across the chunks of a batch or
/// a campaign: the 1 MiB memory of an engine is allocated once per
/// worker, not once per chunk.
pub(crate) struct EnginePool<'p> {
    program: &'p DecodedProgram,
    free: Mutex<Vec<DecodedEngine<'p>>>,
}

impl<'p> EnginePool<'p> {
    pub(crate) fn new(program: &'p DecodedProgram) -> EnginePool<'p> {
        EnginePool {
            program,
            free: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` on an engine in the state of a fresh one; a new engine is
    /// made only when every recycled one is in use.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut DecodedEngine<'p>) -> R) -> R {
        let recycled = self.free.lock().expect("engine users never panic").pop();
        let mut engine = match recycled {
            Some(mut engine) => {
                engine.renew();
                engine
            }
            None => self.program.engine(),
        };
        let out = f(&mut engine);
        self.free
            .lock()
            .expect("engine users never panic")
            .push(engine);
        out
    }
}

/// The width of a unit, for the fast loop's arms.
#[inline(always)]
fn width_of<U: Unit>(_: &U) -> usize {
    U::WIDTH
}

/// Largest per-op increment admitted to the exact-integer path. Keeps
/// `max_budget` comfortably large while every partial sum stays below
/// 2^52.
const MAX_EXACT_INC: f64 = (1u64 << 40) as f64;

/// `v` as an exact nonnegative integer, or `None` if it isn't one.
fn exact_int(v: f64) -> Option<u64> {
    ((0.0..=MAX_EXACT_INC).contains(&v) && v.fract() == 0.0).then_some(v as u64)
}

/// The words from the first at which `a` and `b` differ to the last,
/// found a 64-byte block at a time.
fn differing_span(a: &[i32], b: &[i32]) -> Option<std::ops::Range<usize>> {
    const BLOCK: usize = 16;
    let blocks = || a.chunks(BLOCK).zip(b.chunks(BLOCK));
    let ne = |(x, y): (&[i32], &[i32])| x != y;
    let lo = BLOCK * blocks().position(ne)?;
    let hi = BLOCK * blocks().rposition(ne)?;
    let end = (hi + BLOCK).min(a.len());
    let first = a[lo..].iter().zip(&b[lo..]).position(|(x, y)| x != y)?;
    let last = a[hi..end]
        .iter()
        .zip(&b[hi..end])
        .rposition(|(x, y)| x != y)?;
    Some(lo + first..hi + last + 1)
}

/// The registers some op of `image` reads, and `r0`, as a bit set.
fn read_registers(image: &DecodedImage) -> u16 {
    let mut read = 1u16;
    let mut mark = |r: u8| read |= 1 << (r & 15);
    for op in &image.ops {
        match *op {
            DecodedOp::AluRR { rn, rm, .. } | DecodedOp::CmpR { rn, rm } => {
                mark(rn);
                mark(rm);
            }
            DecodedOp::AluRI { rn, .. } | DecodedOp::CmpI { rn, .. } => mark(rn),
            DecodedOp::MovR { rm, .. } => mark(rm),
            DecodedOp::Csel { rt, rf, .. } => {
                mark(rt);
                mark(rf);
            }
            DecodedOp::LdrR { base, roff, .. } => {
                mark(base);
                mark(roff);
            }
            DecodedOp::LdrI { base, .. } => mark(base),
            DecodedOp::StrR { rs, base, roff } => {
                mark(rs);
                mark(base);
                mark(roff);
            }
            DecodedOp::StrI { rs, base, .. } => {
                mark(rs);
                mark(base);
            }
            DecodedOp::Push { list } => {
                mark(Reg::SP.index() as u8);
                for r in image.reg_list(list) {
                    mark(r.index() as u8);
                }
            }
            DecodedOp::Pop { .. } => mark(Reg::SP.index() as u8),
            DecodedOp::Out { rs, .. } => mark(rs),
            DecodedOp::MovI { .. }
            | DecodedOp::MovI32 { .. }
            | DecodedOp::In { .. }
            | DecodedOp::Nop
            | DecodedOp::Call { .. }
            | DecodedOp::Branch { .. }
            | DecodedOp::CondBranch { .. }
            | DecodedOp::Ret
            | DecodedOp::Halt => {}
        }
    }
    read
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

/// What one op charges, before its predecessor is known: cycles on the
/// taken and not-taken outcomes, energy class and registers moved.
struct OpShape {
    cyc: u64,
    cyc_nt: u64,
    class: EnergyClass,
    regs_moved: usize,
}

impl OpShape {
    /// Bake the cycle and energy constants against the op's
    /// statically-known predecessor class (`None` = the run's first
    /// instruction), combined as the reference [`Machine`](crate::Machine)
    /// charges: `dynamic_energy + leakage·cycles`, in the same f64 order.
    fn cost(&self, em: &GroundTruthEnergy, prev: Option<EnergyClass>) -> OpCost {
        let e = em.dynamic_energy(prev, self.class, self.regs_moved);
        OpCost {
            cyc: self.cyc,
            cyc_nt: self.cyc_nt,
            class: self.class.index() as u8,
            inc_pj: e + em.leakage_per_cycle * self.cyc as f64,
            inc_nt_pj: e + em.leakage_per_cycle * self.cyc_nt as f64,
        }
    }
}

/// Every op's [`OpShape`], in image order. [`decode_program`] lays the
/// image out 1:1 with the program's instructions and block terminators,
/// function by function and block by block, so the shapes come straight
/// from the [`CycleModel`] and [`EnergyClass`] definitions the reference
/// machine charges with.
fn op_shapes(program: &Program, cm: &CycleModel) -> Vec<OpShape> {
    let mut shapes = Vec::new();
    for b in program.functions.values().flat_map(|f| &f.blocks) {
        for insn in &b.insns {
            let cyc = cm.cycles(insn, false);
            let regs_moved = match insn {
                Insn::Push { regs } | Insn::Pop { regs } => regs.len(),
                _ => 0,
            };
            shapes.push(OpShape {
                cyc,
                cyc_nt: cyc,
                class: EnergyClass::of_insn(insn),
                regs_moved,
            });
        }
        let t = &b.terminator;
        shapes.push(OpShape {
            cyc: cm.terminator_cycles(t, true),
            cyc_nt: cm.terminator_cycles(t, false),
            class: EnergyClass::of_terminator(t),
            regs_moved: 0,
        });
    }
    shapes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::ports::{NullDevice, RecordingDevice};
    use std::collections::BTreeMap;
    use teamplay_isa::{Block, BlockId, Cond, Function, Operand, Terminator};

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

    #[test]
    fn condition_masks_agree_with_the_condition_codes() {
        let values = [i32::MIN, -7, -1, 0, 1, 7, i32::MAX];
        for cond in Cond::ALL {
            let mask = CondMask::of(cond);
            for a in values {
                for b in values {
                    assert_eq!(mask.holds((a, b)), cond.holds(a, b), "{cond:?} {a} {b}");
                }
            }
        }
    }

    /// `far` stores to two far pages, a global and the stack; `trap`
    /// stores to a third far page, then loads past the end of memory.
    fn stray_store_program() -> Program {
        let text = format!(
            "far:\n.L0:\n    push {{r4, r5}}\n    mov32 r1, #{far}\n    mov r2, #7\n    \
             str r2, [r1, #0]\n    str r2, [r1, #8188]\n    mov32 r3, #{g}\n    \
             str r2, [r3, #4]\n    pop {{r4, r5}}\n    ret\n\
             trap:\n.L0:\n    mov32 r1, #{far2}\n    mov r2, #9\n    str r2, [r1, #0]\n    \
             mov32 r1, #{end}\n    ldr r0, [r1, #0]\n    ret\n",
            far = 0x8_0000,
            far2 = 0xC_0000,
            g = DATA_BASE,
            end = MEMORY_BYTES,
        );
        let mut p = teamplay_isa::asm::parse_program(&text).expect("listing parses");
        p.globals.insert("g".into(), vec![5, 6, 7]);
        p
    }

    /// Index of the first word where two memories differ.
    fn first_difference(a: &Mem, b: &Mem) -> Option<usize> {
        a.iter().zip(b.iter()).position(|(x, y)| x != y)
    }

    #[test]
    fn reset_after_stray_stores_restores_all_of_memory() {
        let p = stray_store_program();
        let decoded = DecodedProgram::new(&p).expect("decodes");
        let fresh = decoded.engine();
        let mut engine = decoded.engine();
        let mut dev = NullDevice::new();
        engine.call("far", &[], &mut dev).expect("far runs");
        assert_eq!(engine.mem[0x8_0000 / 4], 7);
        assert_eq!(engine.read_global("g", 1), Some(7));
        assert_eq!(
            engine.call("trap", &[], &mut dev),
            Err(MachineError::OutOfRange(MEMORY_BYTES))
        );
        assert_eq!(engine.mem[0xC_0000 / 4], 9);
        // A memory upset outside every page the program writes.
        let flip = FaultSpec {
            at_cycle: 0,
            kind: FaultKind::MemoryBitFlip {
                word: 0x2_8000 + MEM_WORDS as u32,
                bit: 4,
            },
        };
        engine
            .call_faulted("far", &[], &mut dev, &flip)
            .expect("far runs");
        assert_eq!(engine.mem[0x2_8000], 16);
        engine.reset_data();
        assert_eq!(first_difference(&engine.mem, &fresh.mem), None);
        assert_eq!(engine.read_global("g", 1), Some(6));
        // Batches reset the same way: every run sees the initial image.
        let inputs = vec![Vec::new(); 40];
        let runs = crate::simulate_batch(&minipool::Pool::new(2), &decoded, "far", &inputs, 1_000);
        assert!(runs
            .iter()
            .all(|r| r.as_ref().is_ok_and(|r| r.return_value == 0)));
    }

    #[test]
    fn pausing_and_restoring_a_call_changes_nothing() {
        let p = fib_program();
        for (cm, em) in [
            (CycleModel::pg32(), GroundTruthEnergy::pg32()),
            (CycleModel::leon3(), GroundTruthEnergy::leon3()),
        ] {
            let decoded = DecodedProgram::with_models(&p, &cm, &em).expect("decodes");
            let want = decoded
                .engine()
                .call("fib", &[11], &mut NullDevice::new())
                .expect("run");
            for step in [1, 9, 200] {
                let mut engine = decoded.engine();
                let mut at = engine.start("fib", &[11]).expect("starts");
                let mut snapshots = vec![engine.snapshot(&at)];
                let mut target = 0;
                let got = loop {
                    target += step;
                    let paused = engine
                        .resume(&mut at, &mut NullDevice::new(), None, target)
                        .expect("runs");
                    match paused {
                        Some(result) => break result,
                        None => {
                            let last = snapshots.last().expect("taken");
                            let moved = at.cycles() != last.state().cycles();
                            assert_eq!(engine.matches(&at, last), !moved);
                            snapshots.push(engine.snapshot(&at));
                        }
                    }
                };
                assert_eq!(want, got, "pausing every {step} cycles");
                assert_eq!(want.energy_pj.to_bits(), got.energy_pj.to_bits());
                // A call that reaches a run entry at exactly the pause
                // cycle pauses there.
                for snapshot in snapshots.iter().skip(1).step_by(5) {
                    let mut engine = decoded.engine();
                    let mut at = engine.start("fib", &[11]).expect("starts");
                    let cycles = snapshot.state().cycles();
                    let paused = engine
                        .resume(&mut at, &mut NullDevice::new(), None, cycles)
                        .expect("runs");
                    assert!(paused.is_none());
                    assert!(engine.matches(&at, snapshot), "pausing at {cycles}");
                }
                // Every snapshot, restored on a used engine, finishes the
                // call the same way.
                let mut other = decoded.engine();
                for snapshot in snapshots.iter().step_by(7) {
                    other
                        .call("fib", &[3], &mut NullDevice::new())
                        .expect("run");
                    let mut at = other.restore(snapshot);
                    assert!(other.matches(&at, snapshot));
                    let got = other
                        .resume(&mut at, &mut NullDevice::new(), None, u64::MAX)
                        .expect("runs")
                        .expect("completes");
                    assert_eq!(want, got);
                    assert_eq!(want.energy_pj.to_bits(), got.energy_pj.to_bits());
                }
            }
        }
    }

    #[test]
    fn a_snapshot_match_sees_every_difference() {
        let p = stray_store_program();
        let decoded = DecodedProgram::new(&p).expect("decodes");
        let mut engine = decoded.engine();
        engine
            .call("far", &[], &mut NullDevice::new())
            .expect("runs");
        let mut at = engine.start("far", &[]).expect("starts");
        let snapshot = engine.snapshot(&at);
        assert!(engine.matches(&at, &snapshot));
        // A word of a page neither side wrote since the initial image.
        engine.mem[0x2_0000] ^= 1;
        engine.dirty[0x2_0000 / PAGE_WORDS] = true;
        assert!(!engine.matches(&at, &snapshot));
        engine.mem[0x2_0000] ^= 1;
        assert!(engine.matches(&at, &snapshot));
        // A word inside, and one outside, the snapshot's span of a page.
        for word in [0x8_0000 / 4, 0x8_0000 / 4 + 500, DATA_BASE as usize / 4] {
            engine.mem[word] ^= 1;
            assert!(!engine.matches(&at, &snapshot), "word {word:#x}");
            engine.mem[word] ^= 1;
        }
        // `r9` is never read, `r2` is.
        engine.regs[9] ^= 1;
        assert!(engine.matches(&at, &snapshot));
        engine.regs[2] ^= 1;
        assert!(!engine.matches(&at, &snapshot));
        engine.regs[2] ^= 1;
        engine.flags.0 ^= 1;
        assert!(!engine.matches(&at, &snapshot));
        engine.flags.0 ^= 1;
        at.insns += 1;
        assert!(!engine.matches(&at, &snapshot));
    }

    // ---- Table-driven fusion tests: every row of the fusion table, as
    // straight-line code, on both engines. ----

    /// The base ops a unit covers, expanded through the fusion table.
    fn base_ops(unit: &'static str) -> Vec<&'static str> {
        match FUSION_ROWS.iter().find(|row| row[0] == unit) {
            Some(&[_, left, right]) => [base_ops(left), base_ops(right)].concat(),
            None => vec![unit],
        }
    }

    /// How a row's operands are chosen.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Operands {
        /// Every source is the previous micro-op's destination, and a load
        /// right after a store reads the stored address.
        Alias,
        /// No source is the previous micro-op's destination (the second
        /// source is the op's own), and a load right after a store reads
        /// another address.
        Distinct,
        /// `Distinct`, with the last memory micro-op's address out of range.
        Trap,
    }

    /// Base of the `mem` global. The listings below only combine values
    /// with `and`, `orr` and `eor`, and every argument, immediate and
    /// initial word is `MEM_AT | x` with `x` a multiple of 4 below 256 (or
    /// the out-of-range address of `Trap`), so every value is a valid
    /// address whatever register it lands in.
    const MEM_AT: i32 = DATA_BASE as i32;

    /// One listing line per op; a trailing control op is the block's
    /// terminator, jumping to `.L{exit}` (taken) or `.L{exit + 1}`.
    fn listing(ops: &[&str], operands: Operands, exit: usize) -> Vec<String> {
        let last_mem = ops.iter().rposition(|op| matches!(*op, "LdrI" | "StrI"));
        let mut prev_dest: Option<String> = None;
        let mut prev_store: Option<(String, i32)> = None;
        let mut lines = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let dest = format!("r{}", 6 + i % 4);
            let (src, src2) = match (&prev_dest, operands) {
                (Some(d), Operands::Alias) => (d.clone(), d.clone()),
                _ => (format!("r{}", 1 + i % 4), dest.clone()),
            };
            let imm = 4 * (i as i32 % 8);
            let cond = ["lt", "ge", "eq", "ne"][i % 4];
            let (base, off) = match (&prev_store, *op) {
                _ if operands == Operands::Trap && last_mem == Some(i) => ("r5".to_string(), 0),
                (Some((b, o)), "LdrI") if operands == Operands::Alias => (b.clone(), *o),
                (Some((b, o)), "LdrI") => (b.clone(), o + 4),
                _ => (src.clone(), imm),
            };
            lines.push(match *op {
                "AluRR" => format!("{} {dest}, {src}, {src2}", ["and", "orr"][i % 2]),
                "AluRI" => match i % 3 {
                    0 => format!("orr {dest}, {src}, #{imm}"),
                    1 => format!("eor {dest}, {src}, #{imm}"),
                    _ => format!("and {dest}, {src}, #{}", MEM_AT | 0xFC),
                },
                "MovR" => format!("mov {dest}, {src}"),
                "MovI" => format!("mov {dest}, #{}", MEM_AT | imm),
                "CmpR" => format!("cmp {src}, {src2}"),
                "CmpI" => format!("cmp {src}, #{}", MEM_AT | 16),
                "Csel" => format!("csel{cond} {dest}, {src}, {src2}"),
                "LdrI" => format!("ldr {dest}, [{base}, #{off}]"),
                "StrI" => format!("str {src2}, [{base}, #{off}]"),
                "Branch" => format!("b .L{exit}"),
                "CondBranch" => format!("b{cond} .L{exit}  ; else .L{}", exit + 1),
                other => panic!("no listing for base op {other}"),
            });
            let writes = matches!(*op, "AluRR" | "AluRI" | "MovR" | "MovI" | "Csel" | "LdrI");
            prev_dest = writes.then_some(dest);
            prev_store = (*op == "StrI").then_some((base, off));
        }
        lines
    }

    /// `t(sel, ..)` runs `ops` from its entry as straight-line code, then
    /// calls `dump`, which stores the registers the ops read and write
    /// into `mem`. With `split = Some(k)`, the ops before `k` end in a
    /// branch to a block holding the rest, and `sel == 0` enters that
    /// block directly.
    fn row_program(ops: &[&str], operands: Operands, split: Option<usize>) -> Program {
        let k = split.unwrap_or(0);
        let first = usize::from(split.is_some());
        let second = first + usize::from(k > 0);
        let exit = second + 1;
        let mut lines = listing(ops, operands, exit);
        let ends_run = matches!(ops.last(), Some(&("Branch" | "CondBranch")));
        if !ends_run {
            lines.extend(["bl dump".to_string(), "ret".to_string()]);
        }
        let mut text = String::from("t:\n");
        if split.is_some() {
            text.push_str(".L0:\n    cmp r0, #0\n    beq .L2  ; else .L1\n");
        }
        if k > 0 {
            text.push_str(&format!(".L{first}:\n"));
            for line in &lines[..k] {
                text.push_str(&format!("    {line}\n"));
            }
            text.push_str(&format!("    b .L{second}\n"));
        }
        text.push_str(&format!(".L{second}:\n"));
        for line in &lines[k..] {
            text.push_str(&format!("    {line}\n"));
        }
        if ends_run {
            for (label, ret) in [(exit, 1), (exit + 1, 2)] {
                text.push_str(&format!(
                    ".L{label}:\n    bl dump\n    mov r0, #{ret}\n    ret\n"
                ));
            }
        }
        text.push_str(&format!("dump:\n.L0:\n    mov32 r10, #{}\n", MEM_AT + 384));
        for (i, r) in [1, 2, 3, 4, 6, 7, 8, 9].iter().enumerate() {
            text.push_str(&format!("    str r{r}, [r10, #{}]\n", 4 * i));
        }
        text.push_str("    ret\n");
        let mut p = teamplay_isa::asm::parse_program(&text)
            .unwrap_or_else(|e| panic!("{e} in listing:\n{text}"));
        let words = (0..128).map(|w| MEM_AT | (4 * (w % 64))).collect();
        p.globals.insert("mem".into(), words);
        assert_eq!(DataLayout::of_program(&p).address("mem"), Some(DATA_BASE));
        p
    }

    /// `t(sel, ..)` on both engines: equal results (energy to the last
    /// bit) or equal traps, and equal data images.
    fn agree(p: &Program, sel: i32) -> Result<RunResult, MachineError> {
        let args = [
            sel,
            MEM_AT | 16,
            MEM_AT | 32,
            MEM_AT | 48,
            MEM_AT | 64,
            MEMORY_BYTES as i32,
        ];
        let mut reference = Machine::new(p.clone()).expect("reference loads");
        let decoded = DecodedProgram::new(p).expect("decodes");
        let mut engine = decoded.engine();
        let want = reference.call("t", &args, &mut NullDevice::new());
        let got = engine.call("t", &args, &mut NullDevice::new());
        assert_eq!(want, got);
        if let (Ok(a), Ok(b)) = (&want, &got) {
            assert_eq!(a.energy_pj.to_bits(), b.energy_pj.to_bits());
        }
        assert_eq!(reference.data_image(), engine.data_image());
        got
    }

    /// The units the fuse step tiles the slots from `start` into, up to
    /// `end`, as `(slot, width)`.
    fn units(hot: &[HotOp], start: usize, end: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut i = start;
        while i < end {
            out.push((i, hot_width(&hot[i])));
            i += hot_width(&hot[i]);
        }
        out
    }

    #[test]
    fn every_fusion_row_forms_and_matches_the_reference() {
        // The dispatch table's slot size; the hand-written superinstructions
        // this table replaced had 84-byte slots.
        assert!(std::mem::size_of::<HotOp>() <= 84);
        for &[name, ..] in FUSION_ROWS {
            let ops = base_ops(name);
            for operands in [Operands::Alias, Operands::Distinct, Operands::Trap] {
                let has_mem = ops.iter().any(|op| matches!(*op, "LdrI" | "StrI"));
                if operands == Operands::Trap && !has_mem {
                    continue;
                }
                let p = row_program(&ops, operands, None);
                let decoded = DecodedProgram::new(&p).expect("decodes");
                let entry = decoded.image.entry_of("t").expect("t") as usize;
                assert_eq!(decoded.hot[entry].name(), name, "{operands:?}");
                assert_eq!(hot_width(&decoded.hot[entry]), ops.len(), "{name}");
                let got = agree(&p, 1);
                let context = format!("{name}, {operands:?}");
                match operands {
                    Operands::Trap => {
                        assert_eq!(
                            got,
                            Err(MachineError::OutOfRange(MEMORY_BYTES)),
                            "{context}"
                        );
                    }
                    _ => assert!(got.is_ok(), "{context}: {got:?}"),
                }
            }
        }
    }

    #[test]
    fn a_block_start_inside_a_row_splits_it() {
        for &[name, ..] in FUSION_ROWS {
            let ops = base_ops(name);
            let plain = row_program(&ops, Operands::Distinct, None);
            let image = DecodedProgram::new(&plain).expect("decodes").image;
            let entry = image.entry_of("t").expect("t") as usize;
            let flat = &image.ops[entry..entry + ops.len()];
            for k in 1..ops.len() {
                // The fuse step alone: a block start at slot `k` of the
                // row's own ops.
                let mut is_block_start = vec![false; flat.len()];
                is_block_start[0] = true;
                is_block_start[k] = true;
                let hot = fuse_ops(flat, &is_block_start);
                let tiles = units(&hot, 0, flat.len());
                assert!(tiles.iter().any(|&(at, _)| at == k), "{name} split at {k}");
                // A real block start: the ops before `k` end in a branch to
                // it, and `t` can also enter it directly.
                let p = row_program(&ops, Operands::Distinct, Some(k));
                let decoded = DecodedProgram::new(&p).expect("decodes");
                let entry = decoded.image.entry_of("t").expect("t") as usize;
                let target = entry + 3 + k;
                let tiles = units(&decoded.hot, entry, target + 1);
                assert!(tiles.iter().any(|&(at, _)| at == target), "{name} at {k}");
                for sel in [0, 1] {
                    assert!(agree(&p, sel).is_ok(), "{name} split at {k}, sel {sel}");
                }
            }
        }
    }
}
