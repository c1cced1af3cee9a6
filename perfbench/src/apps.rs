//! The two certified applications: their workflow configurations, one
//! seeded frame, its reference outputs, and the checks every workflow
//! outcome must pass.

use crate::trace::{count, span};
use teamplay::predictable::{PredictableOutcome, WorkflowConfig};
use teamplay_apps::{camera_pill, spacewire};
use teamplay_compiler::driver::code_size_halfwords;
use teamplay_contracts::verify_certificate;
use teamplay_isa::Program;
use teamplay_minic::{parse_and_check, Interp, RecordingPorts};
use teamplay_sim::{DecodedEngine, DecodedProgram, Machine, RecordingDevice, RunResult};

/// AST steps the reference interpreter may take for one frame.
const INTERP_FUEL: u64 = 50_000_000;

/// One application of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    /// Camera pill on the PG32 core (paper Section IV-A).
    Pill,
    /// SpaceWire downlink on the LEON3 core (paper Section IV-B).
    SpaceWire,
}

/// The inputs of one frame: the sensor frame seed and the task secret.
#[derive(Clone, Copy, Debug)]
pub struct FrameInput {
    pub frame_seed: u32,
    pub secret: i32,
}

/// What one frame of a binary did.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    pub cycles: u64,
    pub energy_pj: f64,
    pub per_task_cycles: Vec<u64>,
    pub outputs: Vec<(u8, i32)>,
}

/// The deterministic figures of one certified binary and its frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Figures {
    pub wcet_cycles: u64,
    pub wcec_uj: f64,
    pub code_halfwords: usize,
    pub frame_cycles: u64,
    pub frame_energy_uj: f64,
    pub obligations: usize,
}

impl App {
    pub fn name(self) -> &'static str {
        match self {
            App::Pill => "camera_pill",
            App::SpaceWire => "spacewire",
        }
    }

    pub fn source(self) -> &'static str {
        match self {
            App::Pill => camera_pill::SOURCE,
            App::SpaceWire => spacewire::SOURCE,
        }
    }

    /// The workflow configuration with every seeded step keyed by `seed`
    /// (search, leakage draws).
    pub fn config(self, seed: u64) -> WorkflowConfig {
        let mut cfg = match self {
            App::Pill => WorkflowConfig::pg32(),
            App::SpaceWire => WorkflowConfig::leon3(),
        };
        cfg.seed = seed;
        cfg
    }

    fn clock_mhz(self) -> f64 {
        match self {
            App::Pill => camera_pill::CLOCK_MHZ,
            App::SpaceWire => spacewire::CLOCK_MHZ,
        }
    }

    /// Task entry functions in frame order, with their arguments.
    fn tasks(self, input: FrameInput) -> Vec<(&'static str, Vec<i32>)> {
        let with_secret = |f: &'static str, secret_task: &str| {
            let args = if f == secret_task {
                vec![input.secret]
            } else {
                vec![]
            };
            (f, args)
        };
        match self {
            App::Pill => camera_pill::TASKS
                .iter()
                .map(|&(f, _)| with_secret(f, "encrypt"))
                .collect(),
            App::SpaceWire => spacewire::TASKS
                .iter()
                .map(|&f| with_secret(f, "auth"))
                .collect(),
        }
    }

    fn sensor(self, input: FrameInput) -> (u8, Vec<i32>) {
        match self {
            App::Pill => (
                camera_pill::SENSOR_PORT,
                camera_pill::synthetic_frame(input.frame_seed),
            ),
            App::SpaceWire => (
                spacewire::CAMERA_PORT,
                spacewire::synthetic_frame(input.frame_seed),
            ),
        }
    }

    /// The frame's port output computed by the application's Rust
    /// reference functions.
    pub fn rust_reference(self, input: FrameInput) -> Vec<(u8, i32)> {
        let (_, frame) = self.sensor(input);
        match self {
            App::Pill => {
                let mut prev = 0;
                let deltas: Vec<i32> = frame
                    .iter()
                    .map(|&px| {
                        let px = px & 255;
                        let d = (px - prev) & 255;
                        prev = px;
                        d
                    })
                    .collect();
                let packed: Vec<u32> = deltas
                    .chunks(4)
                    .map(|d| (d[0] | (d[1] << 8) | (d[2] << 16) | ((d[3] & 255) << 24)) as u32)
                    .collect();
                let key = camera_pill::expand_key(input.secret);
                let mut out = Vec::new();
                let mut check = 0i32;
                for pair in packed.chunks(2) {
                    for w in camera_pill::xtea_encipher_reference([pair[0], pair[1]], key) {
                        out.push((camera_pill::RADIO_PORT, w as i32));
                        check ^= w as i32;
                    }
                }
                out.push((camera_pill::RADIO_PORT, check));
                out
            }
            App::SpaceWire => {
                let frame: Vec<i32> = frame.iter().map(|&px| px & 255).collect();
                let smooth = spacewire::denoise_reference(&frame);
                let bytes: Vec<u8> = smooth.iter().map(|&w| (w & 255) as u8).collect();
                let port = spacewire::LINK_PORT;
                let mut out = vec![
                    (port, spacewire::DEST_ADDRESS),
                    (port, spacewire::PROTOCOL_ID),
                    (port, spacewire::FRAME_WORDS as i32),
                ];
                out.extend(smooth.iter().map(|&w| (port, w)));
                out.push((port, i32::from(spacewire::crc16_reference(&bytes))));
                out.push((port, spacewire::auth_reference(&smooth, input.secret)));
                out
            }
        }
    }

    /// The frame's port output from the Mini-C interpreter on the
    /// unoptimised source.
    pub fn interpreted(self, input: FrameInput) -> Result<Vec<(u8, i32)>, String> {
        let ast = parse_and_check(self.source()).map_err(|e| e.to_string())?;
        let (port, frame) = self.sensor(input);
        let mut ports = RecordingPorts::new();
        ports.queue(port, frame);
        let mut interp = Interp::new(&ast, ports, INTERP_FUEL);
        for (task, args) in self.tasks(input) {
            interp.call(task, &args).map_err(|e| e.to_string())?;
        }
        Ok(interp.into_ports().outputs)
    }

    /// Run one frame, task by task, through `call`.
    fn frame(
        self,
        input: FrameInput,
        mut call: impl FnMut(&str, &[i32], &mut RecordingDevice) -> Result<RunResult, String>,
    ) -> Result<Frame, String> {
        let (port, frame) = self.sensor(input);
        let mut dev = RecordingDevice::new();
        dev.queue(port, frame);
        let mut out = Frame {
            cycles: 0,
            energy_pj: 0.0,
            per_task_cycles: Vec::new(),
            outputs: Vec::new(),
        };
        for (task, args) in self.tasks(input) {
            let r = call(task, &args, &mut dev)?;
            out.cycles += r.cycles;
            out.energy_pj += r.energy_pj;
            out.per_task_cycles.push(r.cycles);
        }
        out.outputs = dev.outputs;
        Ok(out)
    }

    /// Run one frame of `program` on the reference simulator.
    pub fn run_frame(self, program: &Program, input: FrameInput) -> Result<Frame, String> {
        let cfg = self.config(0);
        let mut machine = Machine::with_models(program.clone(), cfg.cycle_model, cfg.truth)
            .map_err(|e| e.to_string())?;
        self.frame(input, |task, args, dev| {
            machine_call(&mut machine, task, args, dev)
        })
    }

    /// Run one frame of `program` on the pre-decoded engine.
    pub fn run_frame_decoded(self, program: &Program, input: FrameInput) -> Result<Frame, String> {
        let cfg = self.config(0);
        let decoded = DecodedProgram::with_models(program, &cfg.cycle_model, &cfg.truth)?;
        let mut engine = decoded.engine();
        self.frame(input, |task, args, dev| {
            decoded_call(&mut engine, task, args, dev)
        })
    }

    /// Every check a certified outcome must pass, returning its figures:
    /// the certificate re-verifies; the frame's output on both simulators
    /// equals `expected`; both simulators agree cycle for cycle; every
    /// task's observed cycles stay within its IPET bound; secure tasks
    /// are fully hardened and do not leak.
    pub fn check(
        self,
        outcome: &PredictableOutcome,
        input: FrameInput,
        expected: &[(u8, i32)],
    ) -> Result<Figures, String> {
        span("verify_certificate", || {
            verify_certificate(&outcome.certificate, &outcome.evidence)
        })
        .map_err(|e| format!("{}: certificate rejected: {e}", self.name()))?;
        let frame = self.run_frame(&outcome.program, input)?;
        if frame.outputs != expected {
            return Err(format!(
                "{}: frame output differs from the interpreter",
                self.name()
            ));
        }
        let decoded = self.run_frame_decoded(&outcome.program, input)?;
        if decoded != frame {
            return Err(format!("{}: simulators disagree on the frame", self.name()));
        }
        let mut wcet_cycles = 0u64;
        let mut wcec_uj = 0.0;
        for ((task, _), observed) in self.tasks(input).iter().zip(&frame.per_task_cycles) {
            let report = outcome
                .tasks
                .iter()
                .find(|t| t.function == *task)
                .ok_or_else(|| format!("{}: task `{task}` missing", self.name()))?;
            let ipet = (report.wcet_us * self.clock_mhz()).round() as u64;
            if *observed > ipet {
                return Err(format!(
                    "{}: `{task}` ran {observed} cycles over its IPET bound {ipet}",
                    self.name()
                ));
            }
            wcet_cycles += ipet;
            wcec_uj += report.wcec_uj;
            if let Some(ladder) = &report.ladder {
                let leaks = report.leakage.is_none_or(|l| l.leaks());
                if !ladder.fully_hardened() || leaks {
                    return Err(format!("{}: secure task `{task}` leaks", self.name()));
                }
            }
        }
        Ok(Figures {
            wcet_cycles,
            wcec_uj,
            code_halfwords: outcome
                .program
                .functions
                .values()
                .map(code_size_halfwords)
                .sum(),
            frame_cycles: frame.cycles,
            frame_energy_uj: frame.energy_pj / 1e6,
            obligations: outcome.certificate.obligation_count(),
        })
    }
}

/// `Machine::call` in its span, counting the cycles simulated.
pub fn machine_call(
    machine: &mut Machine,
    task: &str,
    args: &[i32],
    dev: &mut RecordingDevice,
) -> Result<RunResult, String> {
    let r = span("Machine::call", || machine.call(task, args, dev))
        .map_err(|e| format!("{task}: {e}"))?;
    count("sim.machine.cycles", r.cycles as f64);
    Ok(r)
}

/// `DecodedEngine::call` in its span, counting the cycles simulated.
pub fn decoded_call(
    engine: &mut DecodedEngine,
    task: &str,
    args: &[i32],
    dev: &mut RecordingDevice,
) -> Result<RunResult, String> {
    let r = span("DecodedEngine::call", || engine.call(task, args, dev))
        .map_err(|e| format!("{task}: {e}"))?;
    count("sim.decoded.cycles", r.cycles as f64);
    Ok(r)
}

/// Everything an outcome commits to, as one string: equal fingerprints
/// mean byte-identical binaries, schedules, certificates, reports and
/// glue. The store counters are left out, so a warm rerun can be
/// compared with the cold run that filled the store.
pub fn fingerprint(outcome: &PredictableOutcome) -> String {
    let search = &outcome.search;
    let shape = (
        search.evaluations,
        search.generations,
        search.cache_hits,
        search.cache_misses,
    );
    serde_json::to_string(&(
        (&outcome.program, &outcome.schedule),
        (&outcome.tasks, &outcome.glue, shape),
    ))
    .expect("outcomes serialize")
        + &outcome.certificate.to_json()
}
