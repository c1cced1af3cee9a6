//! Cycle-accurate executor for PG32 programs.
//!
//! The machine executes CFG-form programs directly (no fetch/decode of the
//! binary encoding — PG32 is deterministic, so the timing model applies
//! identically either way), charging every instruction its
//! [`teamplay_isa::CycleModel`] cycles and its hidden ground-truth energy.
//!
//! Per-run results expose the per-class instruction counts, which is what
//! the energy-model *fitting* flow regresses against — the reproduction of
//! paper ref \[8\]'s "fine-grain power models with no on-chip PMU".

use crate::fault::FaultSpec;
use crate::ports::PortDevice;
use crate::truth::GroundTruthEnergy;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use teamplay_isa::{
    BlockId, CycleModel, DataLayout, EnergyClass, Function, Insn, Operand, Program, Reg,
    Terminator, DATA_BASE, ENERGY_CLASS_COUNT, MEMORY_BYTES, STACK_TOP,
};

/// Execution errors (traps).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MachineError {
    /// Named function does not exist.
    UnknownFunction(String),
    /// Entry call with more than 6 scalar arguments.
    TooManyArgs,
    /// Misaligned word access.
    Unaligned(u32),
    /// Access outside simulated memory.
    OutOfRange(u32),
    /// The cycle budget was exhausted.
    CycleLimit,
    /// Call stack exceeded the limit.
    CallDepth,
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            MachineError::TooManyArgs => write!(f, "entry call with more than 6 arguments"),
            MachineError::Unaligned(a) => write!(f, "misaligned memory access at {a:#x}"),
            MachineError::OutOfRange(a) => write!(f, "memory access out of range at {a:#x}"),
            MachineError::CycleLimit => write!(f, "cycle budget exhausted"),
            MachineError::CallDepth => write!(f, "call depth limit exceeded"),
        }
    }
}

impl std::error::Error for MachineError {}

/// Load-time failures: the program could not be turned into a runnable
/// machine image. Structured (rather than a bare `String`) so callers
/// can match load failures alongside [`MachineError`] traps.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoadError {
    /// The program failed its own structural validation.
    InvalidProgram(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::InvalidProgram(msg) => write!(f, "invalid program: {msg}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// The result of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Contents of `r0` on completion (the return value by ABI).
    pub return_value: i32,
    /// Total cycles consumed.
    pub cycles: u64,
    /// Instructions retired (terminators included).
    pub insns: u64,
    /// Exact ground-truth energy in picojoules (dynamic + leakage).
    pub energy_pj: f64,
    /// Instructions retired per energy class — the "PMU-less event
    /// counters" that model fitting regresses on.
    pub class_counts: [u64; ENERGY_CLASS_COUNT],
}

impl RunResult {
    /// Execution time in microseconds at the given clock.
    pub fn time_us(&self, clock_mhz: f64) -> f64 {
        self.cycles as f64 / clock_mhz
    }
}

pub(crate) const MAX_CALL_DEPTH: usize = 256;

/// The default cycle-budget watchdog applied at load time. Entry points
/// that care about determinism under runaway kernels (the workflow's
/// measure step, fault campaigns, benches) override it with an explicit
/// budget via [`Machine::set_max_cycles`].
pub const DEFAULT_MAX_CYCLES: u64 = 50_000_000;

/// A loaded PG32 machine: program + memory image + cost models.
///
/// Globals persist across [`Machine::call`]s (like a device running task
/// after task); use [`Machine::reset_data`] to restore the initial image.
/// Registers and flags do not: every call starts with them cleared.
///
/// All name resolution happens at load time: the program is decomposed
/// into an index-addressed function table, and every `call` instruction's
/// target is pre-resolved to a function index (validation guarantees the
/// targets exist), so the execution loop never touches a map.
pub struct Machine {
    /// Functions in name order (the program map order).
    functions: Vec<Function>,
    /// Name → index into [`Machine::functions`], consulted once per
    /// [`Machine::call`] for the entry point only.
    func_index: HashMap<String, usize>,
    /// `[function][block][insn]` → callee function index for `call`
    /// instructions (`usize::MAX` elsewhere).
    call_targets: Vec<Vec<Vec<usize>>>,
    /// Initial global images, kept for [`Machine::reset_data`].
    globals: BTreeMap<String, Vec<i32>>,
    layout: DataLayout,
    cycle_model: CycleModel,
    energy_model: GroundTruthEnergy,
    mem: Box<[i32; MEM_WORDS]>,
    regs: [i32; 16],
    flags: (i32, i32), // last cmp operands (a, b)
    max_cycles: u64,
}

impl Machine {
    /// Load a program with PG32 cost models and the
    /// [`DEFAULT_MAX_CYCLES`] watchdog budget.
    ///
    /// # Errors
    /// [`LoadError::InvalidProgram`] if the program is structurally
    /// invalid.
    pub fn new(program: Program) -> Result<Machine, LoadError> {
        Machine::with_models(program, CycleModel::pg32(), GroundTruthEnergy::pg32())
    }

    /// Load a program with explicit cost models.
    ///
    /// # Errors
    /// [`LoadError::InvalidProgram`] if the program is structurally
    /// invalid.
    pub fn with_models(
        program: Program,
        cycle_model: CycleModel,
        energy_model: GroundTruthEnergy,
    ) -> Result<Machine, LoadError> {
        program.validate().map_err(LoadError::InvalidProgram)?;
        let layout = DataLayout::of_program(&program);
        let functions: Vec<Function> = program.functions.into_values().collect();
        let func_index: HashMap<String, usize> = functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), i))
            .collect();
        let call_targets = functions
            .iter()
            .map(|f| {
                f.blocks
                    .iter()
                    .map(|b| {
                        b.insns
                            .iter()
                            .map(|insn| match insn {
                                Insn::Call { func } => {
                                    *func_index.get(func).expect("validated call target")
                                }
                                _ => usize::MAX,
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut machine = Machine {
            functions,
            func_index,
            call_targets,
            globals: program.globals,
            layout,
            cycle_model,
            energy_model,
            mem: zeroed_mem(),
            regs: [0; 16],
            flags: (0, 0),
            max_cycles: DEFAULT_MAX_CYCLES,
        };
        machine.reset_data();
        Ok(machine)
    }

    /// Change the cycle budget per call.
    pub fn set_max_cycles(&mut self, max_cycles: u64) {
        self.max_cycles = max_cycles;
    }

    /// Restore the initial global-data image and clear the rest of memory.
    pub fn reset_data(&mut self) {
        self.mem.fill(0);
        for (name, words) in &self.globals {
            let base = self.layout.address(name).expect("layout covers globals") / 4;
            for (i, w) in words.iter().enumerate() {
                self.mem[base as usize + i] = *w;
            }
        }
    }

    /// The layout used for globals (shared with the code generator).
    pub fn layout(&self) -> &DataLayout {
        &self.layout
    }

    /// Read a global word back after a run (for assertions in tests).
    pub fn read_global(&self, name: &str, index: usize) -> Option<i32> {
        let base = self.layout.address(name)? / 4;
        self.mem.get(base as usize + index).copied()
    }

    /// Snapshot of the whole global data segment, in address order —
    /// the "globals" observable the fault classifier compares between a
    /// faulted run and the fault-free reference.
    pub fn data_image(&self) -> Vec<i32> {
        let lo = (DATA_BASE / 4) as usize;
        let hi = (self.layout.data_end() / 4) as usize;
        self.mem[lo..hi].to_vec()
    }

    /// Call `func` with up to 6 scalar arguments in `r0..r5`.
    ///
    /// A call starts from zeroed registers (but for the arguments and the
    /// stack pointer) and cleared flags; only memory persists from the
    /// calls before it, so with the data reset a call is a pure function
    /// of `(func, args)`.
    ///
    /// # Errors
    /// Any [`MachineError`] trap; the machine state is unspecified after a
    /// trap (call [`Machine::reset_data`] before reusing it).
    pub fn call(
        &mut self,
        func: &str,
        args: &[i32],
        device: &mut dyn PortDevice,
    ) -> Result<RunResult, MachineError> {
        self.run(func, args, device, None)
    }

    /// [`Machine::call`] with one transient fault injected mid-run.
    ///
    /// The machine executes normally until the fault's target cycle is
    /// reached, applies the upset at the next instruction boundary, and
    /// continues. A fault whose target cycle lies past the end of the run
    /// never fires (the run is trivially masked). With `fault` absent the
    /// path is bit-identical to [`Machine::call`].
    ///
    /// # Errors
    /// Any [`MachineError`] trap — under a fault a trap is an *outcome*
    /// (the classifier maps it to `Trapped`/`Hang`), not a bug.
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
        // Disjoint field borrows: the function tables (and derived
        // references into them) stay immutable while registers/memory/
        // flags mutate.
        let functions = &self.functions;
        let call_targets = &self.call_targets;
        let cycle_model = &self.cycle_model;
        let regs = &mut self.regs;
        let mem = &mut *self.mem;
        let flags = &mut self.flags;
        let max_cycles = self.max_cycles;

        let entry_idx = *self
            .func_index
            .get(func)
            .ok_or_else(|| MachineError::UnknownFunction(func.into()))?;

        *regs = [0; 16];
        for (i, a) in args.iter().enumerate() {
            regs[i] = *a;
        }
        regs[Reg::SP.index()] = STACK_TOP as i32;
        *flags = (0, 0);

        let mut cycles: u64 = 0;
        let mut insns: u64 = 0;
        let mut energy = 0.0f64;
        let mut counts = [0u64; ENERGY_CLASS_COUNT];
        let mut prev_class: Option<EnergyClass> = None;

        // (function index, block, next instruction index) continuations.
        let mut stack: Vec<(usize, BlockId, usize)> = Vec::new();
        let mut cur_fi = entry_idx;
        let mut cur_fn: &Function = &functions[cur_fi];
        let mut cur_block = cur_fn.entry();
        let mut cur_idx = 0usize;

        // Clone the (small) energy tables so the accounting closure does
        // not hold a borrow of `self` across the mutating execution loop.
        let energy_model = self.energy_model.clone();
        let charge = move |class: EnergyClass,
                           cyc: u64,
                           regs_moved: usize,
                           cycles: &mut u64,
                           insns: &mut u64,
                           energy: &mut f64,
                           prev: &mut Option<EnergyClass>,
                           counts: &mut [u64; ENERGY_CLASS_COUNT]| {
            *cycles += cyc;
            *insns += 1;
            counts[class.index()] += 1;
            *energy += energy_model.dynamic_energy(*prev, class, regs_moved)
                + energy_model.leakage_per_cycle * cyc as f64;
            *prev = Some(class);
        };

        // SEU injection state: the fault fires exactly once, at the first
        // instruction boundary at or past its target cycle. `skip_armed`
        // carries a pending instruction-skip across terminators (a skip
        // upsets the next *instruction*, never a branch).
        let mut fault_pending = fault;
        let mut skip_armed = false;

        loop {
            if cycles > max_cycles {
                return Err(MachineError::CycleLimit);
            }
            if let Some(f) = fault_pending {
                if cycles >= f.at_cycle {
                    skip_armed = f.kind.strike(regs, mem);
                    fault_pending = None;
                }
            }
            let block = &cur_fn.blocks[cur_block.index()];
            if cur_idx < block.insns.len() {
                let insn = &block.insns[cur_idx];
                cur_idx += 1;
                let cyc = cycle_model.cycles(insn, false);
                let class = EnergyClass::of_insn(insn);
                let regs_moved = match insn {
                    Insn::Push { regs } | Insn::Pop { regs } => regs.len(),
                    _ => 0,
                };
                charge(
                    class,
                    cyc,
                    regs_moved,
                    &mut cycles,
                    &mut insns,
                    &mut energy,
                    &mut prev_class,
                    &mut counts,
                );
                if skip_armed {
                    // A skipped instruction models a writeback-enable
                    // upset: the pipeline still pays the instruction's
                    // normal cost, but its architectural effect is
                    // suppressed. Timing therefore stays on the fault-free
                    // trajectory unless control flow diverges later.
                    skip_armed = false;
                    continue;
                }
                match insn {
                    Insn::Alu { op, rd, rn, src } => {
                        let a = regs[rn.index()];
                        let b = operand_value(regs, *src);
                        regs[rd.index()] = op.eval(a, b);
                    }
                    Insn::Mov { rd, src } => {
                        regs[rd.index()] = operand_value(regs, *src);
                    }
                    Insn::MovImm32 { rd, imm } => {
                        regs[rd.index()] = *imm;
                    }
                    Insn::Cmp { rn, src } => {
                        *flags = (regs[rn.index()], operand_value(regs, *src));
                    }
                    Insn::Csel { cond, rd, rt, rf } => {
                        let (a, b) = *flags;
                        regs[rd.index()] = if cond.holds(a, b) {
                            regs[rt.index()]
                        } else {
                            regs[rf.index()]
                        };
                    }
                    Insn::Ldr { rd, base, offset } => {
                        let addr = (regs[base.index()] as u32)
                            .wrapping_add(operand_value(regs, *offset) as u32);
                        regs[rd.index()] = load_word(mem, addr)?;
                    }
                    Insn::Str { rs, base, offset } => {
                        let addr = (regs[base.index()] as u32)
                            .wrapping_add(operand_value(regs, *offset) as u32);
                        store_word(mem, addr, regs[rs.index()])?;
                    }
                    Insn::Push { regs: list } => {
                        for r in list {
                            let sp = (regs[Reg::SP.index()] as u32).wrapping_sub(4);
                            regs[Reg::SP.index()] = sp as i32;
                            store_word(mem, sp, regs[r.index()])?;
                        }
                    }
                    Insn::Pop { regs: list } => {
                        for r in list.iter().rev() {
                            let sp = regs[Reg::SP.index()] as u32;
                            let v = load_word(mem, sp)?;
                            regs[r.index()] = v;
                            regs[Reg::SP.index()] = sp.wrapping_add(4) as i32;
                        }
                    }
                    Insn::Call { .. } => {
                        if stack.len() >= MAX_CALL_DEPTH {
                            return Err(MachineError::CallDepth);
                        }
                        // Pre-resolved at load time; `cur_idx` was already
                        // advanced past this instruction.
                        let callee = call_targets[cur_fi][cur_block.index()][cur_idx - 1];
                        stack.push((cur_fi, cur_block, cur_idx));
                        cur_fi = callee;
                        cur_fn = &functions[cur_fi];
                        cur_block = cur_fn.entry();
                        cur_idx = 0;
                    }
                    Insn::In { rd, port } => {
                        regs[rd.index()] = device.input(*port);
                    }
                    Insn::Out { rs, port } => {
                        device.output(*port, regs[rs.index()]);
                    }
                    Insn::Nop => {}
                }
            } else {
                // Terminator.
                let term = &block.terminator;
                let taken = match term {
                    Terminator::CondBranch { cond, .. } => {
                        let (a, b) = *flags;
                        cond.holds(a, b)
                    }
                    _ => true,
                };
                let cyc = cycle_model.terminator_cycles(term, taken);
                let class = EnergyClass::of_terminator(term);
                charge(
                    class,
                    cyc,
                    0,
                    &mut cycles,
                    &mut insns,
                    &mut energy,
                    &mut prev_class,
                    &mut counts,
                );
                match term {
                    Terminator::Branch(t) => {
                        cur_block = *t;
                        cur_idx = 0;
                    }
                    Terminator::CondBranch {
                        taken: t,
                        fallthrough: f,
                        ..
                    } => {
                        cur_block = if taken { *t } else { *f };
                        cur_idx = 0;
                    }
                    Terminator::Return => match stack.pop() {
                        Some((fi, b, i)) => {
                            cur_fi = fi;
                            cur_fn = &functions[cur_fi];
                            cur_block = b;
                            cur_idx = i;
                        }
                        None => break,
                    },
                    Terminator::Halt => break,
                }
            }
        }

        Ok(RunResult {
            return_value: regs[0],
            cycles,
            insns,
            energy_pj: energy,
            class_counts: counts,
        })
    }
}

fn operand_value(regs: &[i32; 16], op: Operand) -> i32 {
    match op {
        Operand::Reg(r) => regs[r.index()],
        Operand::Imm(v) => v,
    }
}

/// Simulated memory in words. A power of two, so a checked address can
/// be masked into provable range — the compiler drops the slice bounds
/// check in both interpreter hot loops.
pub(crate) const MEM_WORDS: usize = (MEMORY_BYTES / 4) as usize;

/// Zeroed simulated memory, built on the heap (a stack-allocated
/// `[i32; MEM_WORDS]` would not fit worker-thread stacks).
pub(crate) fn zeroed_mem() -> Box<[i32; MEM_WORDS]> {
    vec![0i32; MEM_WORDS]
        .into_boxed_slice()
        .try_into()
        .expect("MEM_WORDS-sized allocation")
}

pub(crate) fn check_addr(addr: u32) -> Result<usize, MachineError> {
    if !addr.is_multiple_of(4) {
        return Err(MachineError::Unaligned(addr));
    }
    if addr >= MEMORY_BYTES {
        return Err(MachineError::OutOfRange(addr));
    }
    // `addr < MEMORY_BYTES` makes the mask an identity.
    Ok((addr / 4) as usize & (MEM_WORDS - 1))
}

pub(crate) fn load_word(mem: &[i32; MEM_WORDS], addr: u32) -> Result<i32, MachineError> {
    let idx = check_addr(addr)?;
    Ok(mem[idx])
}

pub(crate) fn store_word(
    mem: &mut [i32; MEM_WORDS],
    addr: u32,
    value: i32,
) -> Result<(), MachineError> {
    let idx = check_addr(addr)?;
    mem[idx] = value;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::{NullDevice, RecordingDevice};
    use std::collections::BTreeMap;
    use teamplay_isa::{AluOp, Cond};
    use teamplay_isa::{Block, BlockId};

    /// Build: int answer() { r0 = 40 + 2 }
    fn answer_program() -> Program {
        let mut p = Program::new();
        let f = Function {
            name: "answer".into(),
            blocks: vec![Block {
                insns: vec![
                    Insn::Mov {
                        rd: Reg::R1,
                        src: Operand::Imm(40),
                    },
                    Insn::Alu {
                        op: AluOp::Add,
                        rd: Reg::R0,
                        rn: Reg::R1,
                        src: Operand::Imm(2),
                    },
                ],
                terminator: Terminator::Return,
            }],
            loop_bounds: BTreeMap::new(),
            frame_size: 0,
        };
        p.add_function(f);
        p
    }

    #[test]
    fn executes_straight_line_code() {
        let mut m = Machine::new(answer_program()).expect("load");
        let r = m.call("answer", &[], &mut NullDevice::new()).expect("run");
        assert_eq!(r.return_value, 42);
        // mov(1) + add(1) + ret(4)
        assert_eq!(r.cycles, 6);
        assert_eq!(r.insns, 3);
        assert!(r.energy_pj > 0.0);
    }

    #[test]
    fn energy_accounts_base_overhead_and_leakage() {
        let mut m = Machine::new(answer_program()).expect("load");
        let r = m.call("answer", &[], &mut NullDevice::new()).expect("run");
        let t = GroundTruthEnergy::pg32();
        let expected = t.dynamic_energy(None, EnergyClass::Alu, 0)
            + t.dynamic_energy(Some(EnergyClass::Alu), EnergyClass::Alu, 0)
            + t.dynamic_energy(Some(EnergyClass::Alu), EnergyClass::Branch, 0)
            + t.leakage_per_cycle * 6.0;
        assert!(
            (r.energy_pj - expected).abs() < 1e-9,
            "{} vs {expected}",
            r.energy_pj
        );
    }

    /// Loop: sum 0..n passed in r0.
    fn loop_program() -> Program {
        let mut p = Program::new();
        // bb0: mov r1,#0 (sum); mov r2,#0 (i); b bb1
        // bb1: cmp r2, r0; blt bb2 else bb3
        // bb2: add r1,r1,r2; add r2,r2,#1; b bb1
        // bb3: mov r0, r1; ret
        let f = Function {
            name: "sum".into(),
            blocks: vec![
                Block {
                    insns: vec![
                        Insn::Mov {
                            rd: Reg::R1,
                            src: Operand::Imm(0),
                        },
                        Insn::Mov {
                            rd: Reg::R2,
                            src: Operand::Imm(0),
                        },
                    ],
                    terminator: Terminator::Branch(BlockId(1)),
                },
                Block {
                    insns: vec![Insn::Cmp {
                        rn: Reg::R2,
                        src: Operand::Reg(Reg::R0),
                    }],
                    terminator: Terminator::CondBranch {
                        cond: Cond::Lt,
                        taken: BlockId(2),
                        fallthrough: BlockId(3),
                    },
                },
                Block {
                    insns: vec![
                        Insn::Alu {
                            op: AluOp::Add,
                            rd: Reg::R1,
                            rn: Reg::R1,
                            src: Operand::Reg(Reg::R2),
                        },
                        Insn::Alu {
                            op: AluOp::Add,
                            rd: Reg::R2,
                            rn: Reg::R2,
                            src: Operand::Imm(1),
                        },
                    ],
                    terminator: Terminator::Branch(BlockId(1)),
                },
                Block {
                    insns: vec![Insn::Mov {
                        rd: Reg::R0,
                        src: Operand::Reg(Reg::R1),
                    }],
                    terminator: Terminator::Return,
                },
            ],
            loop_bounds: BTreeMap::new(),
            frame_size: 0,
        };
        p.add_function(f);
        p
    }

    #[test]
    fn loops_and_conditions() {
        let mut m = Machine::new(loop_program()).expect("load");
        let r = m.call("sum", &[10], &mut NullDevice::new()).expect("run");
        assert_eq!(r.return_value, 45);
    }

    #[test]
    fn branch_outcome_affects_cycles() {
        let mut m = Machine::new(loop_program()).expect("load");
        let r0 = m.call("sum", &[0], &mut NullDevice::new()).expect("run");
        let r1 = m.call("sum", &[1], &mut NullDevice::new()).expect("run");
        assert!(r1.cycles > r0.cycles);
    }

    #[test]
    fn cycle_limit_traps() {
        let mut p = Program::new();
        let f = Function {
            name: "spin".into(),
            blocks: vec![Block {
                insns: vec![],
                terminator: Terminator::Branch(BlockId(0)),
            }],
            loop_bounds: BTreeMap::new(),
            frame_size: 0,
        };
        p.add_function(f);
        let mut m = Machine::new(p).expect("load");
        m.set_max_cycles(1_000);
        assert_eq!(
            m.call("spin", &[], &mut NullDevice::new()),
            Err(MachineError::CycleLimit)
        );
    }

    #[test]
    fn calls_push_pop_and_stack_discipline() {
        let mut p = Program::new();
        // callee: r0 = r0 * 2
        let callee = Function {
            name: "double".into(),
            blocks: vec![Block {
                insns: vec![Insn::Alu {
                    op: AluOp::Mul,
                    rd: Reg::R0,
                    rn: Reg::R0,
                    src: Operand::Imm(2),
                }],
                terminator: Terminator::Return,
            }],
            loop_bounds: BTreeMap::new(),
            frame_size: 0,
        };
        // caller: push {r4}; r4 = 5; call double(7); r0 = r0 + r4; pop {r4}
        let caller = Function {
            name: "main".into(),
            blocks: vec![Block {
                insns: vec![
                    Insn::Push {
                        regs: vec![Reg::R4],
                    },
                    Insn::Mov {
                        rd: Reg::R4,
                        src: Operand::Imm(5),
                    },
                    Insn::Mov {
                        rd: Reg::R0,
                        src: Operand::Imm(7),
                    },
                    Insn::Call {
                        func: "double".into(),
                    },
                    Insn::Alu {
                        op: AluOp::Add,
                        rd: Reg::R0,
                        rn: Reg::R0,
                        src: Operand::Reg(Reg::R4),
                    },
                    Insn::Pop {
                        regs: vec![Reg::R4],
                    },
                ],
                terminator: Terminator::Return,
            }],
            loop_bounds: BTreeMap::new(),
            frame_size: 0,
        };
        p.add_function(callee);
        p.add_function(caller);
        let mut m = Machine::new(p).expect("load");
        let r = m.call("main", &[], &mut NullDevice::new()).expect("run");
        assert_eq!(r.return_value, 19);
    }

    #[test]
    fn globals_load_store_and_persist() {
        let mut p = Program::new();
        p.globals.insert("g".into(), vec![100]);
        // bump: r1 = &g (mov32); r2 = [r1]; r2 += 1; [r1] = r2; r0 = r2
        let layout_addr = {
            let layout = DataLayout::of_program(&p);
            layout.address("g").expect("g") as i32
        };
        let f = Function {
            name: "bump".into(),
            blocks: vec![Block {
                insns: vec![
                    Insn::MovImm32 {
                        rd: Reg::R1,
                        imm: layout_addr,
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
        let mut m = Machine::new(p).expect("load");
        assert_eq!(
            m.call("bump", &[], &mut NullDevice::new())
                .expect("run")
                .return_value,
            101
        );
        assert_eq!(
            m.call("bump", &[], &mut NullDevice::new())
                .expect("run")
                .return_value,
            102
        );
        assert_eq!(m.read_global("g", 0), Some(102));
        m.reset_data();
        assert_eq!(m.read_global("g", 0), Some(100));
    }

    #[test]
    fn ports_roundtrip() {
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
        let mut m = Machine::new(p).expect("load");
        let mut dev = RecordingDevice::new();
        dev.queue(4, [10]);
        let r = m.call("echo", &[], &mut dev).expect("run");
        assert_eq!(r.return_value, 11);
        assert_eq!(dev.outputs, vec![(9, 11)]);
    }

    #[test]
    fn traps_on_bad_memory() {
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
        let mut m = Machine::new(p).expect("load");
        assert_eq!(
            m.call("bad", &[], &mut NullDevice::new()),
            Err(MachineError::Unaligned(2))
        );

        let mut p2 = Program::new();
        let f2 = Function {
            name: "far".into(),
            blocks: vec![Block {
                insns: vec![
                    Insn::MovImm32 {
                        rd: Reg::R1,
                        imm: (MEMORY_BYTES + 8) as i32,
                    },
                    Insn::Ldr {
                        rd: Reg::R0,
                        base: Reg::R1,
                        offset: Operand::Imm(0),
                    },
                ],
                terminator: Terminator::Return,
            }],
            loop_bounds: BTreeMap::new(),
            frame_size: 0,
        };
        p2.add_function(f2);
        let mut m2 = Machine::new(p2).expect("load");
        assert!(matches!(
            m2.call("far", &[], &mut NullDevice::new()),
            Err(MachineError::OutOfRange(_))
        ));
    }

    #[test]
    fn too_many_args_rejected() {
        let mut m = Machine::new(answer_program()).expect("load");
        assert_eq!(
            m.call("answer", &[0; 7], &mut NullDevice::new()),
            Err(MachineError::TooManyArgs)
        );
    }

    #[test]
    fn class_counts_sum_to_insns() {
        let mut m = Machine::new(loop_program()).expect("load");
        let r = m.call("sum", &[10], &mut NullDevice::new()).expect("run");
        assert_eq!(r.class_counts.iter().sum::<u64>(), r.insns);
    }
}
