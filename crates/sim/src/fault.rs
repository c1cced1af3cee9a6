//! Deterministic SEU fault-injection campaigns.
//!
//! Safety-critical CPS deployments face transient hardware faults —
//! single-event upsets flipping a register or memory bit, or suppressing
//! one instruction's writeback. This module models exactly those upsets
//! and measures their architectural consequences, AVF-style:
//!
//! * [`FaultSpec`] — one upset: at cycle N, flip bit B of register R /
//!   memory word W, or skip one instruction.
//! * [`FaultPlan`] — a seeded sample of specs, sized from the fault-free
//!   reference run (cycles drawn from its duration, memory words biased
//!   to live data: the global segment and the top of the stack).
//! * [`Machine::call_faulted`] — the reference injection: runs to the
//!   target cycle, applies the upset, keeps executing.
//!   [`DecodedEngine::call_faulted`] injects identically on the
//!   pre-decoded engine.
//! * [`FaultOutcome`] — the classification of one injected run against
//!   the fault-free reference observables.
//! * [`run_campaign`] — fans thousands of injections across a
//!   [`minipool::Pool`] under the same input-ordered, pool-width
//!   bit-identical contract as
//!   [`simulate_batch`](crate::batch::simulate_batch), and aggregates
//!   masked/SDC/trap/timing/hang rates.
//!
//! Every run executes on the pre-decoded engine: the fault-free golden
//! run, which defines the observables every injection is classified
//! against, the zero-fault control row and the injections. Debug builds
//! also run the golden run on the reference [`Machine`] and assert that
//! it observes the same, data image and port outputs included.
//!
//! A call starts from zeroed registers and cleared flags, and a campaign
//! restores memory before every injection, so each injection is an
//! independent experiment: a pure function of the program, the call and
//! the fault. A campaign runs only the part of it that can differ from
//! the golden run. The golden run records 64 snapshots at run entries
//! spread evenly over its cycles (registers, flags, call stack,
//! accounting, the device, and the words of every page it wrote), and
//! an injection resumes from the last one before its target cycle
//! instead of replaying the fault-free prefix. After the upset the run
//! stops at each later checkpoint's run entry: if its state equals the
//! golden one there (registers the program never reads aside), the rest
//! of the run is the golden run's, so it is cut off and classified
//! masked. Memory is reset page by page, only where a run wrote.
//! `tests/fault_campaign_oracle.rs` holds the two engines equal under
//! faults and every campaign, checkpoint boundaries included, equal to
//! a per-fault `Machine` classification of whole runs.
//!
//! Every run executes under a **mandatory watchdog budget** (no
//! unbounded execution: a fault that creates an endless loop must trap
//! [`MachineError::CycleLimit`] deterministically, which the classifier
//! reports as [`FaultOutcome::Hang`]).

use crate::decoded::{DecodedEngine, DecodedProgram, EnginePool, RunState, Snapshot};
use crate::machine::{Machine, MachineError, RunResult, MEM_WORDS};
use crate::ports::RecordingDevice;
use minipool::Pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use teamplay_isa::{DataLayout, Program, DATA_BASE, STACK_TOP};

/// Injections handed to a worker at a time. Every injection starts from
/// a restored checkpoint, so this sets only the granularity of the work.
const CHUNK: usize = 16;

/// Checkpoints the golden run records, beside the one at its entry:
/// one at the first run entry at or past each multiple of its cycles
/// over this count.
const CHECKPOINTS: u64 = 64;

/// Stack words (below [`STACK_TOP`]) that memory faults may target: the
/// region live frames occupy on PG32's full-descending stack.
const STACK_FAULT_WORDS: u32 = 256;

/// The kind of single-event upset to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Flip bit `bit` (0..32) of register `reg` (0..16).
    RegisterBitFlip { reg: u8, bit: u8 },
    /// Flip bit `bit` (0..32) of memory word `word`.
    MemoryBitFlip { word: u32, bit: u8 },
    /// Suppress the writeback of the next instruction (its timing cost
    /// is still charged — a skip upsets the datapath, not the pipeline).
    SkipInstruction,
}

impl FaultKind {
    /// Apply the upset to the architectural state, identically in both
    /// engines. A skip has no state to flip: it returns `true`, and the
    /// engine suppresses the next instruction's effect.
    pub(crate) fn strike(self, regs: &mut [i32; 16], mem: &mut [i32; MEM_WORDS]) -> bool {
        match self {
            FaultKind::RegisterBitFlip { reg, bit } => {
                regs[reg as usize % 16] ^= 1i32 << (bit % 32);
            }
            FaultKind::MemoryBitFlip { word, bit } => {
                mem[word as usize % MEM_WORDS] ^= 1i32 << (bit % 32);
            }
            FaultKind::SkipInstruction => return true,
        }
        false
    }
}

/// One injection: an upset and the cycle at which it fires.
///
/// The upset fires at the first instruction boundary whose cycle count
/// is `>= at_cycle`; a target past the end of the run never fires, which
/// makes the run trivially masked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Fire at the first instruction boundary at or past this cycle.
    pub at_cycle: u64,
    /// The upset to apply.
    pub kind: FaultKind,
}

/// A deterministic, seeded list of injections for one kernel.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The injections, in campaign order.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The empty plan: a campaign over it performs no injections and is
    /// bit-identical to not running a campaign at all.
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// Sample `count` injections, reproducible from `seed` alone.
    ///
    /// Target cycles are drawn uniformly from the fault-free run's
    /// duration (`reference_cycles`), so the plan is *sized from the
    /// reference run*: every fault has a chance to land on a live
    /// instruction. Register flips target all 16 architectural
    /// registers; memory flips are biased to live data — the program's
    /// global segment (from `layout`) and the top `STACK_FAULT_WORDS`
    /// words of the stack.
    pub fn sample(
        seed: u64,
        count: usize,
        reference_cycles: u64,
        layout: &DataLayout,
    ) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let globals_lo = DATA_BASE / 4;
        let globals_hi = layout.data_end() / 4;
        let stack_lo = STACK_TOP / 4 - STACK_FAULT_WORDS;
        let stack_hi = STACK_TOP / 4;
        let faults = (0..count)
            .map(|_| {
                let at_cycle = rng.gen_range(0..reference_cycles.max(1));
                let kind = match rng.gen_range(0..4u8) {
                    0 | 1 => FaultKind::RegisterBitFlip {
                        reg: rng.gen_range(0..16),
                        bit: rng.gen_range(0..32),
                    },
                    2 => {
                        let word = if globals_hi > globals_lo && rng.gen_range(0..2u8) == 0 {
                            rng.gen_range(globals_lo..globals_hi)
                        } else {
                            rng.gen_range(stack_lo..stack_hi)
                        };
                        FaultKind::MemoryBitFlip {
                            word,
                            bit: rng.gen_range(0..32),
                        }
                    }
                    _ => FaultKind::SkipInstruction,
                };
                FaultSpec { at_cycle, kind }
            })
            .collect();
        FaultPlan { faults }
    }
}

/// The classified consequence of one injected run.
///
/// Classification precedence: a watchdog trip is always [`Hang`]; any
/// other trap is [`Trapped`]; a run whose every observable (the full
/// [`RunResult`] down to the energy `f64` bit pattern, the global data
/// image, the port output trace) matches the reference is [`Masked`];
/// a run that exceeds the timing bound is a [`TimingViolation`]; any
/// remaining divergence is [`SilentDataCorruption`].
///
/// [`Hang`]: FaultOutcome::Hang
/// [`Trapped`]: FaultOutcome::Trapped
/// [`Masked`]: FaultOutcome::Masked
/// [`TimingViolation`]: FaultOutcome::TimingViolation
/// [`SilentDataCorruption`]: FaultOutcome::SilentDataCorruption
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultOutcome {
    /// The fault had no architecturally visible effect: the run is
    /// bit-identical to the fault-free reference.
    Masked,
    /// The run completed inside the timing bound but its results differ
    /// (return value, globals, port outputs, or retired-work accounting).
    SilentDataCorruption,
    /// The machine trapped (bad address, call-depth overflow…).
    Trapped(MachineError),
    /// The run completed but took more cycles than the timing bound
    /// (the IPET bound when provided, else the fault-free run).
    TimingViolation,
    /// The watchdog cycle budget expired — the fault created a
    /// (practically) endless loop.
    Hang,
}

/// Everything the classifier compares between a faulted run and the
/// fault-free reference.
#[derive(Debug, Clone, PartialEq)]
struct Observables {
    result: RunResult,
    energy_bits: u64,
    data_image: Vec<i32>,
    outputs: Vec<(u8, i32)>,
}

impl Observables {
    fn capture(result: RunResult, data_image: Vec<i32>, device: &RecordingDevice) -> Observables {
        Observables {
            energy_bits: result.energy_pj.to_bits(),
            result,
            data_image,
            outputs: device.outputs.clone(),
        }
    }
}

/// Campaign parameters. The watchdog budget is mandatory: campaigns
/// refuse to run unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Seed for the [`FaultPlan`] sampler.
    pub seed: u64,
    /// Number of injections to sample.
    pub injections: usize,
    /// Watchdog cycle budget applied to every run (reference included).
    /// Must exceed the fault-free run's cycles.
    pub watchdog_cycles: u64,
    /// Static IPET bound for the kernel, if analysed: runs beyond it are
    /// timing violations even when the reference happens to run longer
    /// than average.
    pub ipet_bound_cycles: Option<u64>,
}

/// Aggregated outcome counts of a campaign, plus AVF-style rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CampaignStats {
    /// Injections with no architecturally visible effect.
    pub masked: usize,
    /// Injections that silently corrupted results.
    pub sdc: usize,
    /// Injections that trapped.
    pub trapped: usize,
    /// Injections that broke the timing bound.
    pub timing: usize,
    /// Injections that tripped the watchdog.
    pub hang: usize,
}

impl CampaignStats {
    /// Total classified injections.
    pub fn total(&self) -> usize {
        self.masked + self.sdc + self.trapped + self.timing + self.hang
    }

    /// `[masked, sdc, trapped, timing, hang]` as fractions of the total
    /// (all zero for an empty campaign). Sums to 1 for any non-empty
    /// campaign.
    pub fn rates(&self) -> [f64; 5] {
        let total = self.total();
        if total == 0 {
            return [0.0; 5];
        }
        let frac = |n: usize| n as f64 / total as f64;
        [
            frac(self.masked),
            frac(self.sdc),
            frac(self.trapped),
            frac(self.timing),
            frac(self.hang),
        ]
    }

    fn record(&mut self, outcome: &FaultOutcome) {
        match outcome {
            FaultOutcome::Masked => self.masked += 1,
            FaultOutcome::SilentDataCorruption => self.sdc += 1,
            FaultOutcome::Trapped(_) => self.trapped += 1,
            FaultOutcome::TimingViolation => self.timing += 1,
            FaultOutcome::Hang => self.hang += 1,
        }
    }
}

/// Deterministic counts of the simulation work a campaign's injections
/// did and avoided. For a run resumed at cycle `r` that ends at cycle
/// `e` (completion, trap, or cut-off), `e - r` cycles are executed and
/// `r` restored; a cut-off run also avoids the golden run's cycles
/// after `e`. A trap in the middle of a fused run counts up to that
/// run's entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CampaignWork {
    /// Simulated cycles the injected runs executed.
    pub executed_cycles: u64,
    /// Golden-run cycles the injected runs skipped by resuming from a
    /// checkpoint.
    pub restored_cycles: u64,
    /// Golden-run cycles the converged runs did not execute after their
    /// cut-off.
    pub cut_cycles: u64,
    /// Injected runs cut off at a checkpoint where their whole state
    /// equalled the golden run's.
    pub converged_runs: usize,
}

impl CampaignWork {
    fn add(&mut self, other: &CampaignWork) {
        self.executed_cycles += other.executed_cycles;
        self.restored_cycles += other.restored_cycles;
        self.cut_cycles += other.cut_cycles;
        self.converged_runs += other.converged_runs;
    }
}

/// The full, deterministic result of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// The plan that was executed (in order).
    pub plan: FaultPlan,
    /// One classified outcome per injection, in plan order.
    pub outcomes: Vec<FaultOutcome>,
    /// Aggregated counts.
    pub stats: CampaignStats,
    /// Fault-free reference cycles (the timing bound when no IPET bound
    /// is supplied).
    pub reference_cycles: u64,
    /// Whether the zero-fault control run reproduced the reference
    /// bit-identically (it must — anything else is a harness bug).
    pub control_masked: bool,
    /// The simulation work the injections did and avoided.
    pub work: CampaignWork,
}

/// Run a seeded campaign: sample a [`FaultPlan`] from the fault-free
/// reference run and classify every injection. See
/// [`run_campaign_with_plan`] for the execution contract.
///
/// # Panics
/// If the kernel fails to load, the fault-free reference run traps, the
/// watchdog does not exceed the reference run, or, in debug builds, the
/// reference [`Machine`] disagrees with the pre-decoded engine (all
/// harness bugs, not outcomes).
pub fn run_campaign(
    pool: &Pool,
    program: &Program,
    func: &str,
    args: &[i32],
    config: &CampaignConfig,
    make_device: impl Fn() -> RecordingDevice + Sync,
) -> CampaignResult {
    let decoded = DecodedProgram::new(program).expect("validated kernel lowers");
    let engines = EnginePool::new(&decoded);
    let golden = golden_run(program, &engines, func, args, config, &make_device);
    let plan = FaultPlan::sample(
        config.seed,
        config.injections,
        golden.observables.result.cycles,
        decoded.layout(),
    );
    inject(pool, &engines, &golden, &plan, config)
}

/// Run an explicit [`FaultPlan`] and classify every injection.
///
/// Each injection is classified exactly as the whole faulted call would
/// be on a [`DecodedEngine`] with freshly reset data: it resumes from the
/// last golden checkpoint before its target cycle (memory restored over
/// the pages the previous run wrote), and stops early, masked, where its
/// state rejoins the golden run's at a later checkpoint. Outcomes come
/// back in plan order, so the serialized [`CampaignResult`] is
/// byte-identical at any pool width.
///
/// # Panics
/// Same conditions as [`run_campaign`].
pub fn run_campaign_with_plan(
    pool: &Pool,
    program: &Program,
    func: &str,
    args: &[i32],
    plan: &FaultPlan,
    config: &CampaignConfig,
    make_device: impl Fn() -> RecordingDevice + Sync,
) -> CampaignResult {
    let decoded = DecodedProgram::new(program).expect("validated kernel lowers");
    let engines = EnginePool::new(&decoded);
    let golden = golden_run(program, &engines, func, args, config, &make_device);
    inject(pool, &engines, &golden, plan, config)
}

/// A golden-run snapshot an injection can resume from.
struct Checkpoint {
    snapshot: Snapshot,
    device: RecordingDevice,
}

impl Checkpoint {
    fn cycles(&self) -> u64 {
        self.snapshot.state().cycles()
    }
}

/// The fault-free reference observables, the bound past which a run is
/// a timing violation, whether the zero-fault control row reproduced
/// the reference, and the golden decoded run's checkpoints (the first
/// at the call's entry).
struct Golden {
    observables: Observables,
    timing_bound: u64,
    control_masked: bool,
    checkpoints: Vec<Checkpoint>,
}

impl Golden {
    /// Classify `fault` on `engine`, as the whole faulted call would be
    /// classified, adding the run's cycles to `work`.
    fn replay(
        &self,
        engine: &mut DecodedEngine<'_>,
        fault: &FaultSpec,
        work: &mut CampaignWork,
    ) -> FaultOutcome {
        let from = self
            .checkpoints
            .partition_point(|c| c.cycles() < fault.at_cycle)
            .saturating_sub(1);
        let checkpoint = &self.checkpoints[from];
        let mut at = engine.restore(&checkpoint.snapshot);
        let mut device = checkpoint.device.clone();
        work.restored_cycles += checkpoint.cycles();

        // Checkpoints past the target follow the upset. The run pauses
        // where it reaches the next one to compare: at its run entry if
        // the run is on the golden timing, else at an entry whose run
        // passes it, so it can never match. A run that rejoins the golden
        // run stays joined, so after each failed comparison the next one
        // is twice as far on: a late match is found at most twice as late,
        // and a run that never rejoins pauses a few times, not at every
        // checkpoint.
        let mut next = self
            .checkpoints
            .partition_point(|c| c.cycles() <= fault.at_cycle);
        let mut gap = 1;
        let mut pending = Some(fault);
        let run = loop {
            let pause_at = self
                .checkpoints
                .get(next)
                .map_or(u64::MAX, Checkpoint::cycles);
            match engine.resume(&mut at, &mut device, pending.take(), pause_at) {
                Ok(None) => {
                    let c = &self.checkpoints[next];
                    if c.cycles() != at.cycles() {
                        next += 1;
                        continue;
                    }
                    if c.device == device && engine.matches(&at, &c.snapshot) {
                        work.executed_cycles += at.cycles() - checkpoint.cycles();
                        work.cut_cycles += self.observables.result.cycles - at.cycles();
                        work.converged_runs += 1;
                        return FaultOutcome::Masked;
                    }
                    next += gap;
                    gap *= 2;
                }
                Ok(Some(result)) => break Ok(result),
                Err(e) => break Err(e),
            }
        };
        work.executed_cycles += at.cycles() - checkpoint.cycles();
        classify(
            &self.observables,
            self.timing_bound,
            run,
            engine.data_image(),
            &device,
        )
    }
}

/// The campaign core: every injection of `plan`, classified against the
/// golden observables.
fn inject(
    pool: &Pool,
    engines: &EnginePool<'_>,
    golden: &Golden,
    plan: &FaultPlan,
    config: &CampaignConfig,
) -> CampaignResult {
    let chunks: Vec<&[FaultSpec]> = plan.faults.chunks(CHUNK).collect();
    let per_chunk: Vec<(Vec<FaultOutcome>, CampaignWork)> = pool.par_map(&chunks, |_, chunk| {
        engines.with(|engine| {
            engine.set_max_cycles(config.watchdog_cycles);
            let mut work = CampaignWork::default();
            let outcomes = chunk
                .iter()
                .map(|fault| golden.replay(engine, fault, &mut work))
                .collect();
            (outcomes, work)
        })
    });
    let mut outcomes = Vec::with_capacity(plan.faults.len());
    let mut work = CampaignWork::default();
    for (chunk_outcomes, chunk_work) in per_chunk {
        outcomes.extend(chunk_outcomes);
        work.add(&chunk_work);
    }

    let mut stats = CampaignStats::default();
    for outcome in &outcomes {
        stats.record(outcome);
    }

    CampaignResult {
        plan: plan.clone(),
        outcomes,
        stats,
        reference_cycles: golden.observables.result.cycles,
        control_masked: golden.control_masked,
        work,
    }
}

/// Run the fault-free reference on one of `engines` under the campaign
/// watchdog: first whole, as the zero-fault control row, then paused at
/// run entries to record the checkpoints, its observables the ones every
/// injection is classified against. Debug builds also run it on the
/// reference [`Machine`] and assert that both engines observe the same.
fn golden_run(
    program: &Program,
    engines: &EnginePool<'_>,
    func: &str,
    args: &[i32],
    config: &CampaignConfig,
    make_device: &(impl Fn() -> RecordingDevice + Sync),
) -> Golden {
    assert!(
        config.watchdog_cycles > 0,
        "campaigns require an explicit watchdog budget"
    );
    let checkpoint =
        |engine: &DecodedEngine<'_>, at: &RunState, device: &RecordingDevice| Checkpoint {
            snapshot: engine.snapshot(at),
            device: device.clone(),
        };
    let golden = engines.with(|engine| {
        engine.set_max_cycles(config.watchdog_cycles);
        // Zero-fault control row: the whole injection path, from the
        // call's entry with a fault that can never fire, must reproduce
        // the golden run bit for bit.
        let never = FaultSpec {
            at_cycle: u64::MAX,
            kind: FaultKind::SkipInstruction,
        };
        let mut control_device = make_device();
        let control = engine.call_faulted(func, args, &mut control_device, &never);
        let control_image = engine.data_image();
        let cycles = control.as_ref().expect("fault-free reference runs").cycles;
        assert!(
            cycles < config.watchdog_cycles,
            "watchdog ({}) must exceed the fault-free run ({cycles})",
            config.watchdog_cycles,
        );

        engine.reset_data();
        let mut device = make_device();
        let mut at = engine
            .start(func, args)
            .expect("fault-free reference starts");
        let mut checkpoints = vec![checkpoint(engine, &at, &device)];
        let spacing = cycles.div_ceil(CHECKPOINTS).max(1);
        let mut target = spacing;
        let run = loop {
            if let Some(run) = engine
                .resume(&mut at, &mut device, None, target)
                .expect("fault-free reference runs")
            {
                break run;
            }
            // Paused at the entry of the run that reaches `target`, which
            // may also reach the targets after it.
            if at.cycles() > checkpoints[checkpoints.len() - 1].cycles() {
                checkpoints.push(checkpoint(engine, &at, &device));
            }
            target += spacing;
        };
        let timing_bound = config
            .ipet_bound_cycles
            .unwrap_or(run.cycles)
            .max(run.cycles);
        let observables = Observables::capture(run, engine.data_image(), &device);
        let control = classify(
            &observables,
            timing_bound,
            control,
            control_image,
            &control_device,
        );
        Golden {
            observables,
            timing_bound,
            control_masked: control == FaultOutcome::Masked,
            checkpoints,
        }
    });

    if cfg!(debug_assertions) {
        let mut machine = Machine::new(program.clone()).expect("kernel loads");
        machine.set_max_cycles(config.watchdog_cycles);
        let mut device = make_device();
        let run = machine
            .call(func, args, &mut device)
            .expect("fault-free reference runs");
        assert_eq!(
            Observables::capture(run, machine.data_image(), &device),
            golden.observables,
            "engines diverge on {func}"
        );
    }
    golden
}

/// [`golden_run`] on engines of its own.
fn golden_of(
    program: &Program,
    func: &str,
    args: &[i32],
    config: &CampaignConfig,
    make_device: &(impl Fn() -> RecordingDevice + Sync),
) -> Golden {
    let decoded = DecodedProgram::new(program).expect("validated kernel lowers");
    golden_run(
        program,
        &EnginePool::new(&decoded),
        func,
        args,
        config,
        make_device,
    )
}

/// The cycles of the checkpoints a campaign over `func` resumes from,
/// the call's entry first — exposed so tests can aim faults at their
/// boundaries.
#[doc(hidden)]
pub fn checkpoint_cycles(
    program: &Program,
    func: &str,
    args: &[i32],
    config: &CampaignConfig,
    make_device: impl Fn() -> RecordingDevice + Sync,
) -> Vec<u64> {
    golden_of(program, func, args, config, &make_device)
        .checkpoints
        .iter()
        .map(Checkpoint::cycles)
        .collect()
}

fn classify(
    reference: &Observables,
    timing_bound: u64,
    run: Result<RunResult, MachineError>,
    data_image: Vec<i32>,
    device: &RecordingDevice,
) -> FaultOutcome {
    match run {
        Err(MachineError::CycleLimit) => FaultOutcome::Hang,
        Err(e) => FaultOutcome::Trapped(e),
        Ok(result) => {
            let observed = Observables::capture(result, data_image, device);
            if observed == *reference {
                FaultOutcome::Masked
            } else if observed.result.cycles > timing_bound {
                FaultOutcome::TimingViolation
            } else {
                FaultOutcome::SilentDataCorruption
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::NullDevice;
    use std::collections::BTreeMap;
    use teamplay_isa::{
        AluOp, Block, BlockId, Cond, Function, Insn, Operand, Reg, Terminator, MEMORY_BYTES,
    };

    /// int answer() { r1 = 40; r0 = r1 + 2; } — returns 42 in 6 cycles.
    fn answer_program() -> Program {
        let mut p = Program::new();
        p.add_function(Function {
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
        });
        p
    }

    /// sum(n): 0+1+…+(n-1) via a counted loop.
    fn sum_program() -> Program {
        let mut p = Program::new();
        p.add_function(Function {
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
        });
        p
    }

    fn config(watchdog: u64, injections: usize) -> CampaignConfig {
        CampaignConfig {
            seed: 0xFA17,
            injections,
            watchdog_cycles: watchdog,
            ipet_bound_cycles: None,
        }
    }

    /// Classify one fault through a campaign, which injects on the
    /// decoded engine, and assert the reference `Machine` classifies the
    /// same fault the same way.
    fn classify_on_both(
        program: &Program,
        func: &str,
        args: &[i32],
        fault: FaultSpec,
        cfg: &CampaignConfig,
    ) -> FaultOutcome {
        let plan = FaultPlan {
            faults: vec![fault],
        };
        let result = run_campaign_with_plan(
            minipool::global(),
            program,
            func,
            args,
            &plan,
            cfg,
            RecordingDevice::new,
        );
        let decoded = result.outcomes.into_iter().next().expect("one outcome");

        let golden = golden_of(program, func, args, cfg, &RecordingDevice::new);
        let mut machine = Machine::new(program.clone()).expect("load");
        machine.set_max_cycles(cfg.watchdog_cycles);
        let mut device = RecordingDevice::new();
        let run = machine.call_faulted(func, args, &mut device, &fault);
        let bound = golden.observables.result.cycles;
        let reference = classify(
            &golden.observables,
            bound,
            run,
            machine.data_image(),
            &device,
        );
        assert_eq!(decoded, reference, "engines classify {fault:?} differently");
        decoded
    }

    fn classify_single(
        program: &Program,
        func: &str,
        args: &[i32],
        fault: FaultSpec,
    ) -> FaultOutcome {
        classify_on_both(program, func, args, fault, &config(100_000, 0))
    }

    /// main() { r0 = 7; call double; } with double(x) = x * 2.
    fn call_program() -> Program {
        let mut p = Program::new();
        p.add_function(Function {
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
        });
        p.add_function(Function {
            name: "main".into(),
            blocks: vec![Block {
                insns: vec![
                    Insn::Mov {
                        rd: Reg::R0,
                        src: Operand::Imm(7),
                    },
                    Insn::Call {
                        func: "double".into(),
                    },
                ],
                terminator: Terminator::Return,
            }],
            loop_bounds: BTreeMap::new(),
            frame_size: 0,
        });
        p
    }

    #[test]
    fn never_firing_fault_is_bit_identical_to_a_plain_call() {
        let p = answer_program();
        let mut a = Machine::new(p.clone()).expect("load");
        let mut b = Machine::new(p).expect("load");
        let want = a.call("answer", &[], &mut NullDevice::new()).expect("run");
        let fault = FaultSpec {
            at_cycle: u64::MAX,
            kind: FaultKind::RegisterBitFlip { reg: 0, bit: 0 },
        };
        let got = b
            .call_faulted("answer", &[], &mut NullDevice::new(), &fault)
            .expect("run");
        assert_eq!(want, got);
        assert_eq!(want.energy_pj.to_bits(), got.energy_pj.to_bits());
        let decoded = DecodedProgram::new(&answer_program()).expect("lowers");
        let fast = decoded
            .engine()
            .call_faulted("answer", &[], &mut NullDevice::new(), &fault)
            .expect("run");
        assert_eq!(want, fast);
        assert_eq!(want.energy_pj.to_bits(), fast.energy_pj.to_bits());
    }

    #[test]
    fn skipped_call_never_enters_the_callee() {
        // The call is the boundary after `mov` (one cycle): skipped, it
        // is charged but `double` never runs and 7 comes back.
        let p = call_program();
        let fault = FaultSpec {
            at_cycle: 1,
            kind: FaultKind::SkipInstruction,
        };
        let mut machine = Machine::new(p.clone()).expect("load");
        let reference = machine
            .call("main", &[], &mut NullDevice::new())
            .expect("run");
        assert_eq!(reference.return_value, 14);
        let want = machine
            .call_faulted("main", &[], &mut NullDevice::new(), &fault)
            .expect("run");
        assert_eq!(want.return_value, 7);
        assert!(want.cycles < reference.cycles);
        let decoded = DecodedProgram::new(&p).expect("lowers");
        let got = decoded
            .engine()
            .call_faulted("main", &[], &mut NullDevice::new(), &fault)
            .expect("run");
        assert_eq!(want, got);
        assert_eq!(want.energy_pj.to_bits(), got.energy_pj.to_bits());
        assert_eq!(
            classify_single(&p, "main", &[], fault),
            FaultOutcome::SilentDataCorruption
        );
    }

    #[test]
    fn flip_of_a_dead_register_is_masked() {
        // r7 is never read or written by `answer`: provably masked.
        let outcome = classify_single(
            &answer_program(),
            "answer",
            &[],
            FaultSpec {
                at_cycle: 0,
                kind: FaultKind::RegisterBitFlip { reg: 7, bit: 3 },
            },
        );
        assert_eq!(outcome, FaultOutcome::Masked);
    }

    #[test]
    fn flip_of_the_return_register_is_silent_data_corruption() {
        // After mov (1 cyc) and add (1 cyc) the boundary at cycle 2 sits
        // just before the return: flipping r0 bit 0 turns 42 into 43.
        let outcome = classify_single(
            &answer_program(),
            "answer",
            &[],
            FaultSpec {
                at_cycle: 2,
                kind: FaultKind::RegisterBitFlip { reg: 0, bit: 0 },
            },
        );
        assert_eq!(outcome, FaultOutcome::SilentDataCorruption);
    }

    #[test]
    fn flip_of_an_address_register_traps_out_of_range() {
        // r1 = 0x1000; r0 = [r1]. Flipping bit 30 of r1 right before the
        // load sends the address to 0x40001000, far past memory.
        let mut p = Program::new();
        p.add_function(Function {
            name: "peek".into(),
            blocks: vec![Block {
                insns: vec![
                    Insn::MovImm32 {
                        rd: Reg::R1,
                        imm: DATA_BASE as i32,
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
        });
        let outcome = classify_single(
            &p,
            "peek",
            &[],
            FaultSpec {
                at_cycle: 1,
                kind: FaultKind::RegisterBitFlip { reg: 1, bit: 30 },
            },
        );
        let addr = DATA_BASE + (1 << 30);
        assert!(addr >= MEMORY_BYTES);
        assert_eq!(
            outcome,
            FaultOutcome::Trapped(MachineError::OutOfRange(addr))
        );
    }

    #[test]
    fn sign_flip_of_the_loop_counter_hangs_the_watchdog() {
        // Mid-loop, flipping bit 31 of the counter makes it hugely
        // negative: ~2^31 extra iterations, far past any sane watchdog.
        let cfg = CampaignConfig {
            seed: 0,
            injections: 0,
            watchdog_cycles: 10_000,
            ipet_bound_cycles: None,
        };
        let fault = FaultSpec {
            at_cycle: 20,
            kind: FaultKind::RegisterBitFlip { reg: 2, bit: 31 },
        };
        let outcome = classify_on_both(&sum_program(), "sum", &[8], fault, &cfg);
        assert_eq!(outcome, FaultOutcome::Hang);
    }

    #[test]
    fn skipped_loop_increment_is_a_timing_violation() {
        // Searching every instruction boundary of sum(10) for a skip
        // that re-runs a loop iteration: at least one must exist, and
        // pinning its cycle must reproduce the violation exactly.
        let p = sum_program();
        let mut m = Machine::new(p.clone()).expect("load");
        let reference = m.call("sum", &[10], &mut NullDevice::new()).expect("runs");
        let violation = (0..reference.cycles).find(|&at| {
            classify_single(
                &p,
                "sum",
                &[10],
                FaultSpec {
                    at_cycle: at,
                    kind: FaultKind::SkipInstruction,
                },
            ) == FaultOutcome::TimingViolation
        });
        let at = violation.expect("a skipped increment re-runs an iteration");
        // Deterministic regression pin: the same spec classifies the
        // same way on every run.
        let again = classify_single(
            &p,
            "sum",
            &[10],
            FaultSpec {
                at_cycle: at,
                kind: FaultKind::SkipInstruction,
            },
        );
        assert_eq!(again, FaultOutcome::TimingViolation);
    }

    #[test]
    fn empty_plan_campaign_is_a_no_op_with_a_masked_control() {
        let result = run_campaign_with_plan(
            minipool::global(),
            &sum_program(),
            "sum",
            &[12],
            &FaultPlan::empty(),
            &config(100_000, 0),
            RecordingDevice::new,
        );
        assert!(result.outcomes.is_empty());
        assert_eq!(result.stats.total(), 0);
        assert!(result.control_masked);
        assert_eq!(result.stats.rates(), [0.0; 5]);
    }

    #[test]
    fn sampled_plans_are_reproducible_and_sized_from_the_reference() {
        let p = sum_program();
        let m = Machine::new(p.clone()).expect("load");
        let a = FaultPlan::sample(9, 64, 500, m.layout());
        let b = FaultPlan::sample(9, 64, 500, m.layout());
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 64);
        assert!(a.faults.iter().all(|f| f.at_cycle < 500));
        assert_ne!(a, FaultPlan::sample(10, 64, 500, m.layout()));
    }

    #[test]
    fn campaigns_are_byte_identical_at_any_pool_width() {
        let p = sum_program();
        let cfg = config(100_000, 48);
        let narrow = run_campaign(&Pool::new(1), &p, "sum", &[15], &cfg, RecordingDevice::new);
        let narrow_json = serde_json::to_string(&narrow).expect("serializes");
        for width in [2usize, 4] {
            let wide = run_campaign(
                &Pool::new(width),
                &p,
                "sum",
                &[15],
                &cfg,
                RecordingDevice::new,
            );
            assert_eq!(
                narrow_json,
                serde_json::to_string(&wide).expect("serializes"),
                "pool width {width}"
            );
        }
        assert_eq!(narrow.stats.total(), 48);
        assert!(narrow.control_masked);
        let rates_sum: f64 = narrow.stats.rates().iter().sum();
        assert!((rates_sum - 1.0).abs() < 1e-12);
    }

    /// The campaign's classification of `plan`, recomputed from whole
    /// faulted runs on one reference `Machine`, its data reset before
    /// each.
    fn machine_campaign(
        program: &Program,
        func: &str,
        args: &[i32],
        plan: &FaultPlan,
        cfg: &CampaignConfig,
    ) -> Vec<FaultOutcome> {
        let golden = golden_of(program, func, args, cfg, &RecordingDevice::new);
        let mut machine = Machine::new(program.clone()).expect("load");
        machine.set_max_cycles(cfg.watchdog_cycles);
        plan.faults
            .iter()
            .map(|fault| {
                machine.reset_data();
                let mut device = RecordingDevice::new();
                let run = machine.call_faulted(func, args, &mut device, fault);
                classify(
                    &golden.observables,
                    golden.timing_bound,
                    run,
                    machine.data_image(),
                    &device,
                )
            })
            .collect()
    }

    /// pick(n): branches on the flags before any compare, which the
    /// cleared flags take to `.L1`, then sums 0..n; the result says which
    /// way it went. Its last compare leaves flags that take the other way.
    fn pick_program() -> Program {
        teamplay_isa::asm::parse_program(
            "pick:\n\
             .L0:\n    beq .L1  ; else .L2\n\
             .L1:\n    mov r3, #1000\n    b .L3\n\
             .L2:\n    mov r3, #2000\n    b .L3\n\
             .L3:\n    mov r1, #0\n    mov r2, #0\n    b .L4\n\
             .L4:\n    cmp r2, r0\n    blt .L5  ; else .L6\n\
             .L5:\n    add r1, r1, r2\n    add r2, r2, #1\n    b .L4\n\
             .L6:\n    add r0, r1, r3\n    cmp r0, #99\n    ret\n",
        )
        .expect("listing parses")
    }

    #[test]
    fn back_to_back_calls_start_from_cleared_flags() {
        let p = pick_program();
        let mut machine = Machine::new(p.clone()).expect("load");
        let decoded = DecodedProgram::new(&p).expect("lowers");
        let mut engine = decoded.engine();
        for _ in 0..2 {
            let want = machine
                .call("pick", &[60], &mut NullDevice::new())
                .expect("run");
            assert_eq!(want.return_value, 1000 + 59 * 60 / 2);
            let got = engine
                .call("pick", &[60], &mut NullDevice::new())
                .expect("run");
            assert_eq!(want, got);
        }
    }

    #[test]
    fn flips_of_a_register_pick_never_reads_are_masked() {
        let p = pick_program();
        let cfg = config(100_000, 0);
        let golden = golden_of(&p, "pick", &[60], &cfg, &RecordingDevice::new);
        assert!(golden.checkpoints.len() > 32);
        // Flips of a register `pick` never reads, across the run: every
        // run starts from cleared flags, takes the golden run's branch,
        // and rejoins the golden run at the next checkpoint.
        let plan = FaultPlan {
            faults: (0..32)
                .map(|k| FaultSpec {
                    at_cycle: 20 + 9 * k,
                    kind: FaultKind::RegisterBitFlip { reg: 9, bit: 2 },
                })
                .collect(),
        };
        let result = run_campaign_with_plan(
            &Pool::new(2),
            &p,
            "pick",
            &[60],
            &plan,
            &cfg,
            RecordingDevice::new,
        );
        assert_eq!(
            result.outcomes,
            machine_campaign(&p, "pick", &[60], &plan, &cfg)
        );
        assert_eq!(result.stats.masked, 32);
        assert_eq!(result.work.converged_runs, 32);
        assert!(result.work.restored_cycles > 0);
    }

    #[test]
    fn flips_of_an_unread_register_converge_at_the_next_checkpoint() {
        let p = sum_program();
        let cfg = config(100_000, 0);
        let golden = golden_of(&p, "sum", &[200], &cfg, &RecordingDevice::new);
        let cycles = golden.observables.result.cycles;
        let plan = FaultPlan {
            faults: (0..40)
                .map(|k| FaultSpec {
                    at_cycle: cycles * k / 50,
                    kind: FaultKind::RegisterBitFlip {
                        reg: 7,
                        bit: k as u8,
                    },
                })
                .collect(),
        };
        let result = run_campaign_with_plan(
            &Pool::new(1),
            &p,
            "sum",
            &[200],
            &plan,
            &cfg,
            RecordingDevice::new,
        );
        assert_eq!(result.stats.masked, 40);
        assert_eq!(result.work.converged_runs, 40);
        // Each run executes about two checkpoint intervals at most.
        let spacing = cycles.div_ceil(CHECKPOINTS);
        assert!(result.work.executed_cycles < 40 * 3 * spacing);
        assert_eq!(
            result.work.executed_cycles + result.work.restored_cycles + result.work.cut_cycles,
            40 * cycles
        );
    }

    /// Deterministic regression slot: any counterexample a campaign
    /// surfaces gets pinned here as an exact `(program, spec, outcome)`
    /// triple so it can never silently reclassify.
    mod regressions {
        use super::*;

        #[test]
        fn memory_flip_outside_live_globals_of_answer_is_masked() {
            // Found by early seeded campaigns: `answer` touches no
            // memory, so any data-segment flip must stay masked —
            // pinned against the classifier regressing on data images.
            let outcome = classify_single(
                &answer_program(),
                "answer",
                &[],
                FaultSpec {
                    at_cycle: 3,
                    kind: FaultKind::MemoryBitFlip {
                        word: STACK_TOP / 4 - 1,
                        bit: 17,
                    },
                },
            );
            assert_eq!(outcome, FaultOutcome::Masked);
        }
    }
}
