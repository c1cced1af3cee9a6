//! Deterministic SEU fault-injection campaigns over the reference
//! interpreter.
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
//! * [`Machine::call_faulted`] — the injection wrapper: runs to the
//!   target cycle, applies the upset, keeps executing.
//! * [`FaultOutcome`] — the classification of one injected run against
//!   the fault-free reference observables.
//! * [`run_campaign`] — fans thousands of injections across a
//!   [`minipool::Pool`] under the same fixed-chunk, input-ordered,
//!   pool-width-bit-identical contract as
//!   [`simulate_batch`](crate::simulate_batch), and aggregates
//!   masked/SDC/trap/timing/hang rates.
//!
//! Every run executes under a **mandatory watchdog budget** (no
//! unbounded execution: a fault that creates an endless loop must trap
//! [`MachineError::CycleLimit`] deterministically, which the classifier
//! reports as [`FaultOutcome::Hang`]). The fault-free reference is
//! cross-checked against the pre-decoded engine before any injection, so
//! a [`FaultOutcome::Masked`] verdict transitively certifies agreement
//! with *both* engines.

use crate::decoded::DecodedProgram;
use crate::machine::{Machine, MachineError, RunResult};
use crate::ports::RecordingDevice;
use minipool::Pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use teamplay_isa::{DataLayout, Program, DATA_BASE, STACK_TOP};

/// Runs per machine instance in a campaign — the same fixed chunk size
/// as the batch fleet, so chunk boundaries (and therefore per-run
/// machine state) never depend on pool width.
const CHUNK: usize = 16;

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
    fn capture(result: RunResult, machine: &Machine, device: &RecordingDevice) -> Observables {
        Observables {
            energy_bits: result.energy_pj.to_bits(),
            result,
            data_image: machine.data_image(),
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
}

/// Run a seeded campaign: sample a [`FaultPlan`] from the fault-free
/// reference run and classify every injection. See
/// [`run_campaign_with_plan`] for the execution contract.
///
/// # Panics
/// If the kernel fails to load, the fault-free reference run traps, the
/// watchdog does not exceed the reference run, or the pre-decoded
/// engine disagrees with the reference (all harness bugs, not outcomes).
pub fn run_campaign(
    pool: &Pool,
    program: &Program,
    func: &str,
    args: &[i32],
    config: &CampaignConfig,
    make_device: impl Fn() -> RecordingDevice + Sync,
) -> CampaignResult {
    let reference = reference_observables(program, func, args, config, &make_device);
    let machine = Machine::new(program.clone()).expect("kernel loads");
    let plan = FaultPlan::sample(
        config.seed,
        config.injections,
        reference.result.cycles,
        machine.layout(),
    );
    run_campaign_with_plan(pool, program, func, args, &plan, config, make_device)
}

/// Run an explicit [`FaultPlan`] and classify every injection.
///
/// Execution follows the batch-fleet determinism discipline: the plan is
/// split into fixed-size chunks, each chunk gets a fresh [`Machine`]
/// whose data image is reset before every run, and outcomes are
/// returned in plan order — so the serialized [`CampaignResult`] is
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
    let reference = reference_observables(program, func, args, config, &make_device);
    let timing_bound = config
        .ipet_bound_cycles
        .unwrap_or(reference.result.cycles)
        .max(reference.result.cycles);

    // Zero-fault control row: the injection wrapper with a fault that
    // can never fire must reproduce the reference bit for bit.
    let control = {
        let mut machine = Machine::new(program.clone()).expect("kernel loads");
        machine.set_max_cycles(config.watchdog_cycles);
        machine.reset_data();
        let mut device = make_device();
        let never = FaultSpec {
            at_cycle: u64::MAX,
            kind: FaultKind::SkipInstruction,
        };
        let run = machine.call_faulted(func, args, &mut device, &never);
        classify(&reference, timing_bound, run, &machine, &device)
    };

    let chunks: Vec<&[FaultSpec]> = plan.faults.chunks(CHUNK).collect();
    let per_chunk: Vec<Vec<FaultOutcome>> = pool.par_map(&chunks, |_, chunk| {
        let mut machine = Machine::new(program.clone()).expect("kernel loads");
        machine.set_max_cycles(config.watchdog_cycles);
        chunk
            .iter()
            .map(|fault| {
                // A trapped run leaves machine state unspecified; the
                // reset restores the pristine image either way.
                machine.reset_data();
                let mut device = make_device();
                let run = machine.call_faulted(func, args, &mut device, fault);
                classify(&reference, timing_bound, run, &machine, &device)
            })
            .collect()
    });
    let outcomes: Vec<FaultOutcome> = per_chunk.into_iter().flatten().collect();

    let mut stats = CampaignStats::default();
    for outcome in &outcomes {
        stats.record(outcome);
    }

    CampaignResult {
        plan: plan.clone(),
        outcomes,
        stats,
        reference_cycles: reference.result.cycles,
        control_masked: control == FaultOutcome::Masked,
    }
}

/// Run the fault-free reference under the campaign watchdog, capture
/// its observables, and cross-check them against the pre-decoded
/// engine so `Masked` verdicts certify agreement with both engines.
fn reference_observables(
    program: &Program,
    func: &str,
    args: &[i32],
    config: &CampaignConfig,
    make_device: &(impl Fn() -> RecordingDevice + Sync),
) -> Observables {
    assert!(
        config.watchdog_cycles > 0,
        "campaigns require an explicit watchdog budget"
    );
    let mut machine = Machine::new(program.clone()).expect("kernel loads");
    machine.set_max_cycles(config.watchdog_cycles);
    machine.reset_data();
    let mut device = make_device();
    let result = machine
        .call(func, args, &mut device)
        .expect("fault-free reference runs");
    assert!(
        result.cycles < config.watchdog_cycles,
        "watchdog ({}) must exceed the fault-free run ({})",
        config.watchdog_cycles,
        result.cycles
    );

    // Decoded-engine cross-check: Masked means "bit-identical to the
    // reference", and the reference itself must be bit-identical to the
    // pre-decoded engine — so a masked fault agrees with both.
    let decoded = DecodedProgram::new(program).expect("validated kernel lowers");
    let mut engine = decoded.engine();
    engine.set_max_cycles(config.watchdog_cycles);
    let mut decoded_device = make_device();
    let decoded_run = engine
        .call(func, args, &mut decoded_device)
        .expect("decoded reference runs");
    assert_eq!(result, decoded_run, "engines diverge on {func}");
    assert_eq!(result.energy_pj.to_bits(), decoded_run.energy_pj.to_bits());

    Observables::capture(result, &machine, &device)
}

fn classify(
    reference: &Observables,
    timing_bound: u64,
    run: Result<RunResult, MachineError>,
    machine: &Machine,
    device: &RecordingDevice,
) -> FaultOutcome {
    match run {
        Err(MachineError::CycleLimit) => FaultOutcome::Hang,
        Err(e) => FaultOutcome::Trapped(e),
        Ok(result) => {
            let observed = Observables::capture(result, machine, device);
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

    fn classify_single(
        program: &Program,
        func: &str,
        args: &[i32],
        fault: FaultSpec,
    ) -> FaultOutcome {
        let cfg = config(100_000, 0);
        let plan = FaultPlan {
            faults: vec![fault],
        };
        let result = run_campaign_with_plan(
            minipool::global(),
            program,
            func,
            args,
            &plan,
            &cfg,
            RecordingDevice::new,
        );
        result.outcomes.into_iter().next().expect("one outcome")
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
        let plan = FaultPlan {
            faults: vec![FaultSpec {
                at_cycle: 20,
                kind: FaultKind::RegisterBitFlip { reg: 2, bit: 31 },
            }],
        };
        let result = run_campaign_with_plan(
            minipool::global(),
            &sum_program(),
            "sum",
            &[8],
            &plan,
            &cfg,
            RecordingDevice::new,
        );
        assert_eq!(result.outcomes, vec![FaultOutcome::Hang]);
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
