//! Oracle suite for fault injection and the campaign runner.
//!
//! `run_campaign` promises the same contract as the batched trace
//! fleet: outcomes in plan order, **byte-identical at any pool width**,
//! with the zero-fault control run reproducing the fault-free reference
//! bit for bit. This suite pins that contract on the four app kernels
//! under their tuned pipelines — the serialized [`CampaignResult`]
//! (plan, per-injection outcomes, aggregated stats) must be
//! byte-for-byte equal on pools of 1, 2 and 4 workers.
//!
//! Campaigns inject on the pre-decoded engine, so two more contracts
//! tie them to the reference [`Machine`]:
//!
//! * **Engine equivalence under faults** — every fault, run through
//!   [`Machine::call_faulted`] and [`DecodedEngine::call_faulted`],
//!   gives the same `RunResult` (energy to the last bit) or the same
//!   trap, the same data image and the same port outputs. The faults
//!   cover sampled plans, a skip and a register flip at every cycle of
//!   a kernel's first few hundred, skips across the end of the run, and
//!   faults at cycle 0, on the app kernels and on generated kernels.
//! * **Campaign ≡ per-fault reference classification** — each
//!   campaign outcome equals the classification of the same whole
//!   faulted run on a `Machine`, at every pool width. Campaigns resume
//!   each injection from a golden-run checkpoint and cut a run off where
//!   it rejoins the golden run, so one case aims faults at every
//!   checkpoint's cycle, one before and one after it, and at cycle 0,
//!   and adds a chunk whose skipped first compare makes a run branch on
//!   the flags the run before it left.
//!
//! A last case checks the empty-plan identity: a campaign over
//! [`FaultPlan::empty`] performs no injections and still certifies the
//! masked control, so wiring the campaign harness into a flow cannot
//! perturb it.
//!
//! [`CampaignResult`]: teamplay_sim::CampaignResult
//! [`FaultPlan::empty`]: teamplay_sim::FaultPlan::empty

#[path = "common/kernels.rs"]
mod kernels;

use minipool::Pool;
use proptest::prelude::*;
use teamplay_compiler::{generate_program, CodegenOpts, PassManager, Pipeline};
use teamplay_isa::{CycleModel, Insn, Program, Terminator, STACK_TOP};
use teamplay_minic::compile_to_ir;
use teamplay_sim::fault::checkpoint_cycles;
use teamplay_sim::{
    run_campaign, run_campaign_with_plan, CampaignConfig, CampaignResult, DecodedEngine,
    DecodedProgram, FaultKind, FaultOutcome, FaultPlan, FaultSpec, Machine, MachineError,
    RecordingDevice, RunResult,
};
use teamplay_wcet::analyze_program;

/// The four app kernels under their tuned pipelines — built as the
/// end-to-end benchmark's fault fleet builds them — with the IPET
/// bound the campaign uses as its timing-violation threshold.
fn kernels() -> Vec<(String, String, Vec<i32>, Program, u64)> {
    let cat = teamplay_apps::catalog();
    let cm = CycleModel::pg32();
    [
        (
            "camera_pill",
            teamplay_apps::camera_pill::SOURCE,
            "compress",
            vec![],
        ),
        (
            "spacewire",
            teamplay_apps::spacewire::SOURCE,
            "crc_frame",
            vec![],
        ),
        (
            "uav",
            teamplay_apps::uav::DETECT_KERNEL_SOURCE,
            "predetect",
            vec![40],
        ),
        (
            "parking",
            teamplay_apps::parking::CONV_KERNEL_SOURCE,
            "conv_layer",
            vec![],
        ),
    ]
    .into_iter()
    .map(|(app, src, task, args)| {
        let mut module = compile_to_ir(src).expect("kernel compiles");
        let mut pm =
            PassManager::new(cat.get(app).expect("registered").clone()).expect("pipeline resolves");
        pm.run(&mut module);
        let program = generate_program(&module, CodegenOpts::default()).expect("codegen succeeds");
        let ipet = analyze_program(&program, &cm)
            .expect("ipet")
            .wcet_cycles(task)
            .expect("bounded");
        (app.to_string(), task.to_string(), args, program, ipet)
    })
    .collect()
}

fn config(ipet: u64) -> CampaignConfig {
    CampaignConfig {
        seed: 0xFA17_0C1E,
        // 67 injections: not a multiple of the campaign's chunk size, so
        // the last chunk is ragged and boundary bookkeeping is exercised.
        injections: 67,
        watchdog_cycles: ipet * 2,
        ipet_bound_cycles: Some(ipet),
    }
}

#[test]
fn campaigns_are_byte_identical_across_pool_widths() {
    for (app, task, args, program, ipet) in kernels() {
        let cfg = config(ipet);
        let run = |width: usize| {
            let result = run_campaign(
                &Pool::new(width),
                &program,
                &task,
                &args,
                &cfg,
                RecordingDevice::new,
            );
            assert!(
                result.control_masked,
                "{app}/{task}: zero-fault control diverged at width {width}"
            );
            assert_eq!(
                result.outcomes,
                machine_outcomes(&program, &task, &args, &cfg, &result),
                "{app}/{task}: campaign differs from the reference at width {width}"
            );
            serde_json::to_string(&result).expect("serializes")
        };
        let baseline = run(1);
        for width in [2usize, 4] {
            assert_eq!(
                baseline,
                run(width),
                "{app}/{task}: campaign differs between pool width 1 and {width}"
            );
        }
    }
}

#[test]
fn campaign_rates_cover_every_injection_exactly_once() {
    for (app, task, args, program, ipet) in kernels() {
        let cfg = config(ipet);
        let result = run_campaign(
            minipool::global(),
            &program,
            &task,
            &args,
            &cfg,
            RecordingDevice::new,
        );
        assert_eq!(
            result.outcomes.len(),
            cfg.injections,
            "{app}/{task}: outcome arity"
        );
        assert_eq!(result.stats.total(), cfg.injections, "{app}/{task}");
        let rates_sum: f64 = result.stats.rates().iter().sum();
        assert!(
            (rates_sum - 1.0).abs() < 1e-12,
            "{app}/{task}: rates sum to {rates_sum}"
        );
        // The plan really was sized from the fault-free reference run.
        assert!(result
            .plan
            .faults
            .iter()
            .all(|f| f.at_cycle < result.reference_cycles));
    }
}

#[test]
fn empty_plan_campaign_is_a_no_op_on_a_real_kernel() {
    for (app, task, args, program, ipet) in kernels() {
        let result = run_campaign_with_plan(
            minipool::global(),
            &program,
            &task,
            &args,
            &FaultPlan::empty(),
            &config(ipet),
            RecordingDevice::new,
        );
        assert!(result.outcomes.is_empty(), "{app}/{task}");
        assert_eq!(result.stats.total(), 0, "{app}/{task}");
        assert_eq!(result.stats.rates(), [0.0; 5], "{app}/{task}");
        assert!(result.control_masked, "{app}/{task}");
    }
}

#[test]
fn campaigns_are_reproducible_from_the_seed_alone() {
    let (app, task, args, program, ipet) = kernels().remove(2);
    let cfg = config(ipet);
    let a = run_campaign(
        minipool::global(),
        &program,
        &task,
        &args,
        &cfg,
        RecordingDevice::new,
    );
    let b = run_campaign(
        minipool::global(),
        &program,
        &task,
        &args,
        &cfg,
        RecordingDevice::new,
    );
    assert_eq!(a, b, "{app}/{task}: same seed, different campaign");
    let other = run_campaign(
        minipool::global(),
        &program,
        &task,
        &args,
        &CampaignConfig {
            seed: cfg.seed + 1,
            ..cfg
        },
        RecordingDevice::new,
    );
    assert_ne!(
        a.plan, other.plan,
        "{app}/{task}: the seed must actually steer the plan"
    );
}

/// The cycle at which `func`'s first compare executes. Until then a run
/// branches on nothing, so this follows the one path of jumps, calls
/// and returns from the entry.
fn first_cmp_cycle(program: &Program, func: &str) -> u64 {
    let cm = CycleModel::pg32();
    let mut cycles = 0;
    // (function, block, next instruction) frames; the last is running.
    let mut frames = vec![(func.to_string(), 0usize, 0usize)];
    loop {
        let (name, block, at) = frames.last_mut().expect("a frame runs");
        let b = &program.functions[name.as_str()].blocks[*block];
        let Some(insn) = b.insns.get(*at) else {
            cycles += cm.terminator_cycles(&b.terminator, true);
            match &b.terminator {
                Terminator::Branch(target) => (*block, *at) = (target.0 as usize, 0),
                Terminator::Return => {
                    frames.pop();
                    assert!(!frames.is_empty(), "{func} compares nothing");
                }
                other => panic!("{func} reaches {other:?} before a compare"),
            }
            continue;
        };
        *at += 1;
        match insn {
            Insn::Cmp { .. } => return cycles,
            Insn::Csel { .. } => panic!("{func} selects before a compare"),
            Insn::Call { func: callee } => {
                cycles += cm.cycles(insn, false);
                frames.push((callee.clone(), 0, 0));
            }
            _ => cycles += cm.cycles(insn, false),
        }
    }
}

#[test]
fn checkpoint_boundaries_classify_as_whole_runs() {
    for (app, task, args, program, ipet) in kernels() {
        let cfg = config(ipet);
        let checkpoints = checkpoint_cycles(&program, &task, &args, &cfg, RecordingDevice::new);
        assert!(checkpoints.len() > 40, "{app}/{task}: {checkpoints:?}");
        assert_eq!(checkpoints[0], 0);
        // A skip, a register flip and a flip of a live stack word at each
        // checkpoint's cycle, one before and one after, and at cycle 0.
        let mut faults: Vec<FaultSpec> = checkpoints
            .iter()
            .flat_map(|&c| [c.saturating_sub(1), c, c + 1])
            .enumerate()
            .map(|(i, at)| FaultSpec {
                at_cycle: at,
                kind: match i % 3 {
                    0 => FaultKind::SkipInstruction,
                    1 => FaultKind::RegisterBitFlip {
                        reg: (at % 16) as u8,
                        bit: (at % 32) as u8,
                    },
                    _ => FaultKind::MemoryBitFlip {
                        word: STACK_TOP / 4 - 1 - (at % 32) as u32,
                        bit: (at % 32) as u8,
                    },
                },
            })
            .collect();
        // A chunk of its own whose odd runs skip the first compare and so
        // branch on the flags the run before them left: where a fault
        // stopped it mid-run, or where it ended.
        let never = FaultSpec {
            at_cycle: u64::MAX,
            kind: FaultKind::SkipInstruction,
        };
        faults.resize(faults.len().next_multiple_of(CHUNK), never);
        let skip_first_cmp = FaultSpec {
            at_cycle: first_cmp_cycle(&program, &task),
            kind: FaultKind::SkipInstruction,
        };
        let end = checkpoints[checkpoints.len() - 1];
        for k in 0..CHUNK as u64 / 2 {
            let before = FaultSpec {
                at_cycle: end * (k + 1) / 9,
                kind: FaultKind::RegisterBitFlip {
                    reg: [13, k as u8][k as usize % 2],
                    bit: [30, 31][k as usize % 2],
                },
            };
            faults.extend([if k == 0 { never } else { before }, skip_first_cmp]);
        }
        let plan = FaultPlan { faults };
        let mut want = None;
        for width in [1usize, 2, 4] {
            let result = run_campaign_with_plan(
                &Pool::new(width),
                &program,
                &task,
                &args,
                &plan,
                &cfg,
                RecordingDevice::new,
            );
            assert!(result.control_masked, "{app}/{task}");
            let want =
                want.get_or_insert_with(|| machine_outcomes(&program, &task, &args, &cfg, &result));
            assert_eq!(
                &result.outcomes, want,
                "{app}/{task}: campaign differs from the reference at width {width}"
            );
        }
    }
}

/// Everything one faulted run shows: the result (energy as bits) or the
/// trap, the data image and the port outputs.
#[derive(Debug, PartialEq)]
struct Observed {
    run: Result<RunResult, MachineError>,
    energy_bits: Option<u64>,
    data_image: Vec<i32>,
    outputs: Vec<(u8, i32)>,
}

impl Observed {
    fn of(
        run: Result<RunResult, MachineError>,
        data_image: Vec<i32>,
        device: RecordingDevice,
    ) -> Observed {
        Observed {
            energy_bits: run.as_ref().map(|r| r.energy_pj.to_bits()).ok(),
            run,
            data_image,
            outputs: device.outputs,
        }
    }
}

/// One faulted run on the reference machine, from freshly reset data.
fn on_machine(m: &mut Machine, func: &str, args: &[i32], fault: &FaultSpec) -> Observed {
    m.reset_data();
    let mut device = RecordingDevice::new();
    let run = m.call_faulted(func, args, &mut device, fault);
    Observed::of(run, m.data_image(), device)
}

/// One faulted run on the decoded engine, from freshly reset data.
fn on_engine(e: &mut DecodedEngine<'_>, func: &str, args: &[i32], fault: &FaultSpec) -> Observed {
    e.reset_data();
    let mut device = RecordingDevice::new();
    let run = e.call_faulted(func, args, &mut device, fault);
    Observed::of(run, e.data_image(), device)
}

/// Campaign chunk size: each chunk of the plan runs on one engine in the
/// state of a fresh one, and the condition flags carry from run to run
/// within it.
const CHUNK: usize = 16;

/// The campaign's classification, recomputed on the reference
/// [`Machine`]: the fault-free reference observables, then every fault
/// of `result.plan` on a fresh machine per chunk.
fn machine_outcomes(
    program: &Program,
    func: &str,
    args: &[i32],
    cfg: &CampaignConfig,
    result: &CampaignResult,
) -> Vec<FaultOutcome> {
    let machine = || {
        let mut m = Machine::new(program.clone()).expect("kernel loads");
        m.set_max_cycles(cfg.watchdog_cycles);
        m
    };
    let never = FaultSpec {
        at_cycle: u64::MAX,
        kind: FaultKind::SkipInstruction,
    };
    let reference = on_machine(&mut machine(), func, args, &never);
    let ref_cycles = reference.run.as_ref().expect("reference runs").cycles;
    assert_eq!(ref_cycles, result.reference_cycles);
    let bound = cfg.ipet_bound_cycles.unwrap_or(ref_cycles).max(ref_cycles);
    result
        .plan
        .faults
        .chunks(CHUNK)
        .flat_map(|chunk| {
            let mut m = machine();
            chunk
                .iter()
                .map(|fault| {
                    let observed = on_machine(&mut m, func, args, fault);
                    match &observed.run {
                        Err(MachineError::CycleLimit) => FaultOutcome::Hang,
                        Err(e) => FaultOutcome::Trapped(e.clone()),
                        _ if observed == reference => FaultOutcome::Masked,
                        Ok(r) if r.cycles > bound => FaultOutcome::TimingViolation,
                        Ok(_) => FaultOutcome::SilentDataCorruption,
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Run every fault on both engines and assert they observe the same.
/// Each engine is reused across the faults, as a campaign chunk reuses
/// it; returns how many faults ran.
fn assert_engines_agree(
    program: &Program,
    func: &str,
    args: &[i32],
    watchdog: u64,
    faults: impl IntoIterator<Item = FaultSpec>,
    label: &str,
) -> usize {
    let mut machine = Machine::new(program.clone()).expect("kernel loads");
    machine.set_max_cycles(watchdog);
    let decoded = DecodedProgram::new(program).expect("kernel lowers");
    let mut engine = decoded.engine();
    engine.set_max_cycles(watchdog);
    let mut n = 0;
    for fault in faults {
        let want = on_machine(&mut machine, func, args, &fault);
        let got = on_engine(&mut engine, func, args, &fault);
        assert_eq!(want, got, "{label}: engines diverge under {fault:?}");
        n += 1;
    }
    n
}

/// The fault sweep every kernel gets: a skip and a register flip at
/// every cycle of the first `head` cycles, a skip and a flip of the
/// return register from `tail` cycles before the end to a few past it,
/// and every kind of upset at cycle 0.
fn sweep(reference_cycles: u64, head: u64, tail: u64) -> Vec<FaultSpec> {
    let mut faults = Vec::new();
    for at in 0..head.min(reference_cycles) {
        faults.push(FaultSpec {
            at_cycle: at,
            kind: FaultKind::SkipInstruction,
        });
        faults.push(FaultSpec {
            at_cycle: at,
            kind: FaultKind::RegisterBitFlip {
                reg: (at % 16) as u8,
                bit: (at * 7 % 32) as u8,
            },
        });
    }
    for at in reference_cycles.saturating_sub(tail)..reference_cycles + 4 {
        faults.push(FaultSpec {
            at_cycle: at,
            kind: FaultKind::SkipInstruction,
        });
        faults.push(FaultSpec {
            at_cycle: at,
            kind: FaultKind::RegisterBitFlip { reg: 0, bit: 1 },
        });
    }
    for kind in [
        FaultKind::SkipInstruction,
        FaultKind::RegisterBitFlip { reg: 0, bit: 0 },
        FaultKind::RegisterBitFlip { reg: 13, bit: 4 },
        FaultKind::MemoryBitFlip {
            word: teamplay_isa::STACK_TOP / 4 - 1,
            bit: 9,
        },
    ] {
        faults.push(FaultSpec { at_cycle: 0, kind });
    }
    faults
}

fn reference_cycles(program: &Program, func: &str, args: &[i32]) -> u64 {
    let mut machine = Machine::new(program.clone()).expect("kernel loads");
    machine
        .call(func, args, &mut RecordingDevice::new())
        .expect("fault-free run")
        .cycles
}

#[test]
fn engines_agree_under_faults_on_the_app_kernels() {
    for (app, task, args, program, ipet) in kernels() {
        let cycles = reference_cycles(&program, &task, &args);
        let layout = DecodedProgram::new(&program)
            .expect("lowers")
            .layout()
            .clone();
        let sampled = FaultPlan::sample(0x5EED ^ cycles, 96, cycles, &layout);
        let faults = sweep(cycles, 300, 50).into_iter().chain(sampled.faults);
        let n = assert_engines_agree(&program, &task, &args, 2 * ipet, faults, &app);
        assert!(n > 700, "{app}/{task}: only {n} faults ran");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn engines_agree_under_faults_on_generated_kernels(
        src in kernels::arb_kernel(),
        inline in any::<bool>(),
        x in -40i32..40,
        y in -40i32..40,
        seed in 0u64..1_000_000,
    ) {
        // Without inlining the helpers' calls survive.
        let pipeline = if inline { Pipeline::o3() } else { Pipeline::o1() };
        let mut module = compile_to_ir(&src).expect("generated kernels lower");
        PassManager::new(pipeline).expect("preset resolves").run(&mut module);
        let program = generate_program(&module, CodegenOpts::default()).expect("codegen");
        let cycles = reference_cycles(&program, "f", &[x, y]);
        let layout = DecodedProgram::new(&program).expect("lowers").layout().clone();
        let sampled = FaultPlan::sample(seed, 64, cycles, &layout);
        // A skip at every boundary also lands on each surviving `Call`.
        let skips = (0..cycles).map(|at| FaultSpec {
            at_cycle: at,
            kind: FaultKind::SkipInstruction,
        });
        let faults = sweep(cycles, 100, 50)
            .into_iter()
            .chain(skips)
            .chain(sampled.faults);
        assert_engines_agree(&program, "f", &[x, y], 4 * cycles + 1_000, faults, &src);
    }
}
