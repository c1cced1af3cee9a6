//! The verification fleets: seeded SEU campaigns over the four tuned app
//! kernels, and leakage assessment of the two hardened secure tasks.
//! Everything is compiled during set-up; a round runs only simulators.

use crate::apps::{decoded_call, machine_call};
use crate::trace::{count, span};
use std::collections::HashSet;
use teamplay_compiler::driver::code_size_halfwords;
use teamplay_compiler::{generate_program, CodegenOpts, PassManager};
use teamplay_energy::{analyze_program_energy, IsaEnergyModel};
use teamplay_isa::{CycleModel, Program};
use teamplay_minic::{lower::lower_program, parse_and_check, Interp, RecordingPorts};
use teamplay_security::{assess_leakage, ladderise, LeakageReport, SecretSpec};
use teamplay_sim::{
    run_campaign, CampaignConfig, CampaignStats, DecodedProgram, Machine, RecordingDevice,
};
use teamplay_wcet::analyze_program;

/// Injections per kernel per round.
pub const INJECTIONS: usize = 256;
/// Leakage traces per secret class per secure task.
pub const LEAK_TRACES: usize = 48;

/// The kernels `BENCH_fault.json` uses: `(app, source, task, args)`.
const KERNELS: [(&str, &str, &str, &[i32]); 4] = [
    (
        "camera_pill",
        teamplay_apps::camera_pill::SOURCE,
        "compress",
        &[],
    ),
    (
        "spacewire",
        teamplay_apps::spacewire::SOURCE,
        "crc_frame",
        &[],
    ),
    (
        "uav",
        teamplay_apps::uav::DETECT_KERNEL_SOURCE,
        "predetect",
        &[40],
    ),
    (
        "parking",
        teamplay_apps::parking::CONV_KERNEL_SOURCE,
        "conv_layer",
        &[],
    ),
];

/// The hardened secure tasks: `(app, source, task, secret parameter)`.
const SECURE: [(&str, &str, &str, &str); 2] = [
    (
        "camera_pill",
        teamplay_apps::camera_pill::SOURCE,
        "encrypt",
        "key",
    ),
    (
        "spacewire",
        teamplay_apps::spacewire::SOURCE,
        "auth",
        "token",
    ),
];

/// Port outputs and the words of every global after a kernel ran.
type Observed = (Vec<(u8, i32)>, Vec<(String, Vec<i32>)>);

struct Kernel {
    task: &'static str,
    args: &'static [i32],
    program: Program,
    ipet_cycles: u64,
    wcec_pj: f64,
    campaign: CampaignConfig,
    /// The Mini-C interpreter's result.
    expected: Observed,
}

struct Secure {
    task: &'static str,
    program: Program,
    seed: u64,
}

/// The compiled fleet of one seed.
pub struct Fleet {
    kernels: Vec<Kernel>,
    secure: Vec<Secure>,
}

/// What one round observed; equal across rounds of one seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Round {
    pub campaigns: Vec<CampaignStats>,
    pub leakage: Vec<LeakageReport>,
    pub golden_cycles: u64,
    pub golden_energy_uj: f64,
}

fn tuned(app: &str) -> PassManager {
    let catalog = teamplay_apps::catalog();
    PassManager::new(catalog.get(app).expect("registered app pipeline").clone())
        .expect("tuned pipelines resolve")
}

fn build(source: &str, app: &str, harden: Option<(&str, &str)>) -> Result<Program, String> {
    let ast = span("parse_and_check", || parse_and_check(source)).map_err(|e| e.to_string())?;
    let mut ir = span("lower_program", || lower_program(&ast));
    if let Some((task, secret)) = harden {
        let f = ir.function_mut(task).ok_or("secure task missing")?;
        let secrets = HashSet::from([secret.to_string()]);
        if !span("ladderise", || ladderise(f, &secrets)).fully_hardened() {
            return Err(format!("{app}/{task} is not fully hardened"));
        }
    }
    let mut pm = tuned(app);
    span("run_passes", || pm.run(&mut ir));
    span("generate_program", || {
        generate_program(&ir, CodegenOpts::default())
    })
    .map_err(|e| e.to_string())
}

fn interpreted(source: &str, task: &str, args: &[i32]) -> Result<Observed, String> {
    let ast = parse_and_check(source).map_err(|e| e.to_string())?;
    let mut interp = Interp::new(&ast, RecordingPorts::new(), 50_000_000);
    interp.call(task, args).map_err(|e| e.to_string())?;
    let globals = ast
        .globals()
        .map(|g| {
            let words = match interp.global_array(&g.name) {
                Some(words) => words.to_vec(),
                None => vec![interp.global_scalar(&g.name).unwrap_or(0)],
            };
            (g.name.clone(), words)
        })
        .collect();
    Ok((interp.into_ports().outputs, globals))
}

impl Fleet {
    /// Compile and statically analyse every kernel, derive each
    /// campaign's plan seed and watchdog (twice the IPET bound), and take
    /// the interpreter's reference result of each kernel.
    pub fn set_up(seed: u64) -> Result<Fleet, String> {
        let cm = CycleModel::pg32();
        let em = IsaEnergyModel::pg32_datasheet();
        let mut kernels = Vec::new();
        for (i, &(app, source, task, args)) in KERNELS.iter().enumerate() {
            let program = build(source, app, None)?;
            let ipet_cycles = span("analyze_program", || analyze_program(&program, &cm))
                .map_err(|e| e.to_string())?
                .wcet_cycles(task)
                .ok_or("kernel unbounded")?;
            let wcec_pj = span("analyze_program_energy", || {
                analyze_program_energy(&program, &em, &cm)
            })
            .map_err(|e| e.to_string())?
            .wcec_pj(task)
            .ok_or("kernel unbounded")?;
            kernels.push(Kernel {
                task,
                args,
                program,
                ipet_cycles,
                wcec_pj,
                campaign: CampaignConfig {
                    seed: crate::derive(seed, 0xFA17_0000 + i as u64),
                    injections: INJECTIONS,
                    watchdog_cycles: 2 * ipet_cycles,
                    ipet_bound_cycles: Some(ipet_cycles),
                },
                expected: interpreted(source, task, args)?,
            });
        }
        let mut secure = Vec::new();
        for (i, &(app, source, task, secret)) in SECURE.iter().enumerate() {
            secure.push(Secure {
                task,
                program: build(source, app, Some((task, secret)))?,
                seed: crate::derive(seed, 0x5EC0_0000 + i as u64),
            });
        }
        Ok(Fleet { kernels, secure })
    }

    /// The fleet's static figures: summed IPET bounds (cycles), WCEC
    /// bounds (µJ) and code size (halfwords) of the kernels.
    pub fn bounds(&self) -> (u64, f64, usize) {
        let code = self
            .kernels
            .iter()
            .map(|k| {
                k.program
                    .functions
                    .values()
                    .map(code_size_halfwords)
                    .sum::<usize>()
            })
            .sum();
        (
            self.kernels.iter().map(|k| k.ipet_cycles).sum(),
            self.kernels.iter().map(|k| k.wcec_pj).sum::<f64>() / 1e6,
            code,
        )
    }

    /// One round: per kernel a golden run on both simulators (checked
    /// against the interpreter, the IPET and WCEC bounds) and a seeded
    /// campaign; then leakage of both hardened tasks.
    pub fn round(&self) -> Result<Round, String> {
        let pool = minipool::Pool::new(1);
        let mut round = Round {
            campaigns: Vec::new(),
            leakage: Vec::new(),
            golden_cycles: 0,
            golden_energy_uj: 0.0,
        };
        for k in &self.kernels {
            let mut machine = Machine::new(k.program.clone()).map_err(|e| e.to_string())?;
            let mut dev = RecordingDevice::new();
            let golden = machine_call(&mut machine, k.task, k.args, &mut dev)?;
            let decoded = DecodedProgram::new(&k.program)?;
            let mut engine = decoded.engine();
            let mut decoded_dev = RecordingDevice::new();
            let fast = decoded_call(&mut engine, k.task, k.args, &mut decoded_dev)?;
            let (outputs, globals) = &k.expected;
            let globals_match = globals.iter().all(|(name, words)| {
                words
                    .iter()
                    .enumerate()
                    .all(|(i, w)| machine.read_global(name, i) == Some(*w))
            });
            if fast != golden
                || dev.outputs != *outputs
                || decoded_dev.outputs != *outputs
                || !globals_match
            {
                return Err(format!(
                    "{}: golden run differs from the interpreter",
                    k.task
                ));
            }
            if golden.cycles > k.ipet_cycles || golden.energy_pj > k.wcec_pj {
                return Err(format!("{}: golden run exceeds its static bounds", k.task));
            }
            round.golden_cycles += golden.cycles;
            round.golden_energy_uj += golden.energy_pj / 1e6;

            let result = span("run_campaign", || {
                run_campaign(
                    &pool,
                    &k.program,
                    k.task,
                    k.args,
                    &k.campaign,
                    RecordingDevice::new,
                )
            });
            count("sim.fault.injections", result.stats.total() as f64);
            if !result.control_masked || result.stats.total() != INJECTIONS {
                return Err(format!("{}: campaign control run diverged", k.task));
            }
            round.campaigns.push(result.stats);
        }
        for s in &self.secure {
            let spec = SecretSpec {
                arg_index: 0,
                class0: 0x0F0F_0F0F,
                class1: -0x6543_2110,
            };
            let report = span("assess_leakage", || {
                assess_leakage(&s.program, s.task, 1, spec, LEAK_TRACES, 0..4096, s.seed)
            })
            .map_err(|e| e.to_string())?;
            count("security.leak_traces", (2 * LEAK_TRACES) as f64);
            if report.leaks() {
                return Err(format!("hardened `{}` leaks", s.task));
            }
            round.leakage.push(report);
        }
        Ok(round)
    }
}
