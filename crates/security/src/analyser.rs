//! The SecurityAnalyser: leakage assessment of compiled tasks.
//!
//! Runs a compiled PG32 task on the cycle simulator — the reproduction's
//! measurement rig — under two fixed secrets while drawing the public
//! inputs at random, then scores the **timing channel** (cycle counts)
//! and the **power channel** (per-run energy) with the indiscernibility
//! metrics. This is exactly the experimental setup of the paper's
//! synthetic Cortex-M0 security validation (Section IV).
//!
//! The rig lowers the task once into a `DecodedProgram` and measures on
//! the pre-decoded engine. Its cycles and energy are bit-identical to
//! the reference `Machine`'s, so every report, and every leak score the
//! compiler stores, is the same as a `Machine` measurement; the unit
//! tests below hold the serialised reports byte-equal on the app
//! kernels' hardened secure tasks and on a leaking example.
//!
//! A rig run is a pure function of the program, the function and its
//! argument words: every call starts from zeroed registers and cleared
//! flags, `reset_data` restores the initial data image before it, and
//! the `NullDevice` always reads 0. So one assessment simulates each
//! distinct argument vector once and reuses its cycles and energy for
//! every later trace that draws it (a task whose only argument is its
//! secret makes two runs). The memo lives for one assessment; nothing
//! is cached across calls.

use crate::metrics::LeakageAssessment;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use teamplay_isa::Program;
use teamplay_sim::{DecodedProgram, LoadError, MachineError, NullDevice, RunResult};

/// Which argument is secret and which two values to compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecretSpec {
    /// Index of the secret argument.
    pub arg_index: usize,
    /// First secret class value.
    pub class0: i32,
    /// Second secret class value.
    pub class1: i32,
}

/// Leakage scores for both observable channels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeakageReport {
    /// Timing channel (cycles per run).
    pub time: LeakageAssessment,
    /// Power channel (energy per run).
    pub energy: LeakageAssessment,
    /// Traces collected per class.
    pub traces_per_class: usize,
}

impl LeakageReport {
    /// `true` if either channel leaks.
    pub fn leaks(&self) -> bool {
        use crate::metrics::Verdict;
        self.time.verdict == Verdict::Leaking || self.energy.verdict == Verdict::Leaking
    }
}

/// Assessment failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssessError {
    /// Machine trap during a measurement run.
    Machine(MachineError),
    /// Bad argument shape (secret index out of range, > 6 args).
    BadSpec(String),
    /// Program failed to load.
    Load(LoadError),
}

impl fmt::Display for AssessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssessError::Machine(e) => write!(f, "measurement run trapped: {e}"),
            AssessError::BadSpec(msg) => write!(f, "bad secret spec: {msg}"),
            AssessError::Load(e) => write!(f, "program load failed: {e}"),
        }
    }
}

impl std::error::Error for AssessError {}

impl From<MachineError> for AssessError {
    fn from(e: MachineError) -> Self {
        AssessError::Machine(e)
    }
}

/// Assess the leakage of `func` in `program`.
///
/// `arg_count` is the function's total scalar argument count; non-secret
/// arguments are drawn uniformly from `public_range` with a seeded RNG,
/// identically for both classes (paired sampling isolates the secret's
/// contribution). The runs execute on the pre-decoded engine, whose
/// cycles and energy are bit-identical to the reference `Machine`'s.
/// Each distinct argument vector is simulated once per call, at its
/// first draw; the samples, and so the report, are those of running
/// every trace, and a trapping vector fails at its first draw.
///
/// # Errors
/// See [`AssessError`].
pub fn assess_leakage(
    program: &Program,
    func: &str,
    arg_count: usize,
    spec: SecretSpec,
    traces_per_class: usize,
    public_range: std::ops::Range<i32>,
    seed: u64,
) -> Result<LeakageReport, AssessError> {
    if spec.arg_index >= arg_count {
        return Err(AssessError::BadSpec(format!(
            "secret index {} out of range for {arg_count} args",
            spec.arg_index
        )));
    }
    if arg_count > 6 {
        return Err(AssessError::BadSpec("more than 6 arguments".into()));
    }
    let decoded = DecodedProgram::new(program)
        .map_err(|e| AssessError::Load(LoadError::InvalidProgram(e)))?;
    let mut engine = decoded.engine();
    measure(
        arg_count,
        spec,
        traces_per_class,
        public_range,
        seed,
        |args| {
            engine.reset_data();
            engine.call(func, args, &mut NullDevice::new())
        },
    )
}

/// Draw the public inputs, run both secret classes on each draw through
/// `run` (one fresh-data run per call, made once per distinct argument
/// vector of this measurement), and score both channels.
fn measure(
    arg_count: usize,
    spec: SecretSpec,
    traces_per_class: usize,
    public_range: std::ops::Range<i32>,
    seed: u64,
    mut run: impl FnMut(&[i32]) -> Result<RunResult, MachineError>,
) -> Result<LeakageReport, AssessError> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Argument words (padded to 6) → (cycles, energy) of their run.
    let mut runs: HashMap<[i32; 6], (f64, f64)> = HashMap::new();

    let mut time = [
        Vec::with_capacity(traces_per_class),
        Vec::with_capacity(traces_per_class),
    ];
    let mut energy = [
        Vec::with_capacity(traces_per_class),
        Vec::with_capacity(traces_per_class),
    ];

    for _ in 0..traces_per_class {
        // One public draw, replayed for both classes.
        let mut publics = [0; 6];
        for word in &mut publics[..arg_count] {
            *word = rng.gen_range(public_range.clone());
        }
        for (class, secret) in [(0usize, spec.class0), (1usize, spec.class1)] {
            let mut args = publics;
            args[spec.arg_index] = secret;
            let (cycles, pj) = match runs.entry(args) {
                Entry::Occupied(hit) => *hit.get(),
                Entry::Vacant(miss) => {
                    let r = run(&miss.key()[..arg_count])?;
                    *miss.insert((r.cycles as f64, r.energy_pj))
                }
            };
            time[class].push(cycles);
            energy[class].push(pj);
        }
    }

    Ok(LeakageReport {
        time: LeakageAssessment::from_samples(&time[0], &time[1]),
        energy: LeakageAssessment::from_samples(&energy[0], &energy[1]),
        traces_per_class,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::{ladderise, secret_params_of};
    use crate::metrics::Verdict;
    use std::collections::HashMap;
    use std::collections::HashSet;
    use teamplay_compiler::{compile_module, generate_program, CodegenOpts, CompilerConfig};
    use teamplay_minic::compile_to_ir;
    use teamplay_sim::Machine;

    /// A branchy comparator: classic timing leak (arms differ in cost).
    const BRANCHY: &str = "/*@ secret(k) @*/
        int check(int k, int x) {
            int r = 0;
            if (k > 100) { r = (x * 3 + k) * (x - 2) + x / 3; } else { r = x; }
            return r;
        }";

    fn compile(src: &str, harden: bool) -> Program {
        let mut ir = compile_to_ir(src).expect("front-end");
        if harden {
            let mut secrets = HashMap::new();
            for f in &ir.functions {
                secrets.insert(f.name.clone(), secret_params_of(f));
            }
            for f in &mut ir.functions {
                let s = secrets[&f.name].clone();
                let report = ladderise(f, &s);
                assert!(report.fully_hardened(), "{report:?}");
            }
        }
        // No optimisation: keep the branch structure as written.
        compile_module(&ir, &CompilerConfig::traditional()).expect("compile")
    }

    fn spec() -> SecretSpec {
        SecretSpec {
            arg_index: 0,
            class0: 0,
            class1: 200,
        }
    }

    #[test]
    fn branchy_code_leaks_time_and_energy() {
        let program = compile(BRANCHY, false);
        let report = assess_leakage(&program, "check", 2, spec(), 64, 0..1000, 7).expect("assess");
        assert_eq!(report.time.verdict, Verdict::Leaking, "{report:?}");
        assert_eq!(report.energy.verdict, Verdict::Leaking, "{report:?}");
    }

    #[test]
    fn ladderised_code_is_indistinguishable() {
        let program = compile(BRANCHY, true);
        let report = assess_leakage(&program, "check", 2, spec(), 64, 0..1000, 7).expect("assess");
        assert_eq!(
            report.time.verdict,
            Verdict::Indistinguishable,
            "{report:?}"
        );
        assert_eq!(
            report.energy.verdict,
            Verdict::Indistinguishable,
            "{report:?}"
        );
        assert!(!report.leaks());
    }

    #[test]
    fn hardening_costs_some_time() {
        // The ladder executes both arms: protection is not free — this is
        // the security/time trade-off of paper Section III-C.
        let plain = compile(BRANCHY, false);
        let hard = compile(BRANCHY, true);
        let mut mp = Machine::new(plain).expect("load");
        let mut mh = Machine::new(hard).expect("load");
        // k=0 takes the cheap arm in the branchy version.
        let rp = mp
            .call("check", &[0, 5], &mut NullDevice::new())
            .expect("run");
        let rh = mh
            .call("check", &[0, 5], &mut NullDevice::new())
            .expect("run");
        assert_eq!(rp.return_value, rh.return_value);
        assert!(
            rh.cycles > rp.cycles,
            "ladder must cost cycles on the cheap path"
        );
    }

    #[test]
    fn bad_spec_is_rejected() {
        let program = compile(BRANCHY, false);
        let err = assess_leakage(
            &program,
            "check",
            2,
            SecretSpec {
                arg_index: 5,
                class0: 0,
                class1: 1,
            },
            8,
            0..10,
            1,
        )
        .unwrap_err();
        assert!(matches!(err, AssessError::BadSpec(_)));
    }

    #[test]
    fn deterministic_given_seed() {
        let program = compile(BRANCHY, false);
        let a = assess_leakage(&program, "check", 2, spec(), 32, 0..100, 3).expect("a");
        let b = assess_leakage(&program, "check", 2, spec(), 32, 0..100, 3).expect("b");
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_program_is_a_typed_load_error() {
        let mut program = compile(BRANCHY, false);
        program
            .functions
            .get_mut("check")
            .expect("check")
            .blocks
            .clear();
        let err = assess_leakage(&program, "check", 2, spec(), 4, 0..10, 1).unwrap_err();
        let Err(load) = Machine::new(program) else {
            panic!("the reference accepts the program");
        };
        assert_eq!(err, AssessError::Load(load));
    }

    /// The measurement of [`assess_leakage`] with no run memo: every
    /// trace runs on the reference `Machine`. Returns the report (or the
    /// first trap) and the argument vector of every run, in run order.
    fn machine_measure(
        program: &Program,
        func: &str,
        arg_count: usize,
        spec: SecretSpec,
        traces: usize,
        public_range: std::ops::Range<i32>,
        seed: u64,
    ) -> (Result<LeakageReport, AssessError>, Vec<Vec<i32>>) {
        let mut machine = Machine::new(program.clone()).expect("load");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples = [[Vec::new(), Vec::new()], [Vec::new(), Vec::new()]];
        let mut ran = Vec::new();
        for _ in 0..traces {
            let publics: Vec<i32> = (0..arg_count)
                .map(|_| rng.gen_range(public_range.clone()))
                .collect();
            for (class, secret) in [(0, spec.class0), (1, spec.class1)] {
                let mut args = publics.clone();
                args[spec.arg_index] = secret;
                ran.push(args.clone());
                machine.reset_data();
                match machine.call(func, &args, &mut NullDevice::new()) {
                    Ok(r) => {
                        samples[0][class].push(r.cycles as f64);
                        samples[1][class].push(r.energy_pj);
                    }
                    Err(e) => return (Err(e.into()), ran),
                }
            }
        }
        let [time, energy] = samples;
        let report = LeakageReport {
            time: LeakageAssessment::from_samples(&time[0], &time[1]),
            energy: LeakageAssessment::from_samples(&energy[0], &energy[1]),
            traces_per_class: traces,
        };
        (Ok(report), ran)
    }

    /// [`assess_leakage`] with its `run` closure wrapped to record the
    /// argument vector of every run it makes.
    fn counted_assessment(
        program: &Program,
        func: &str,
        arg_count: usize,
        spec: SecretSpec,
        traces: usize,
        public_range: std::ops::Range<i32>,
        seed: u64,
    ) -> (Result<LeakageReport, AssessError>, Vec<Vec<i32>>) {
        let decoded = DecodedProgram::new(program).expect("decodes");
        let mut engine = decoded.engine();
        let mut ran = Vec::new();
        let report = measure(arg_count, spec, traces, public_range, seed, |args| {
            ran.push(args.to_vec());
            engine.reset_data();
            engine.call(func, args, &mut NullDevice::new())
        });
        (report, ran)
    }

    /// The first occurrence of each argument vector, in order.
    fn first_occurrences(ran: &[Vec<i32>]) -> Vec<Vec<i32>> {
        let mut seen = HashSet::new();
        ran.iter().filter(|a| seen.insert(*a)).cloned().collect()
    }

    /// A secure task of an app, ladderised on its secret and compiled
    /// under the app's tuned pipeline.
    fn hardened_task(app: &str, source: &str, task: &str, secret: &str) -> Program {
        let mut ir = compile_to_ir(source).expect("front-end");
        let f = ir.function_mut(task).expect("secure task");
        let report = ladderise(f, &HashSet::from([secret.to_string()]));
        assert!(report.fully_hardened(), "{report:?}");
        let pipeline = teamplay_apps::catalog().get(app).expect("tuned").clone();
        let mut pm = teamplay_compiler::PassManager::new(pipeline).expect("pipeline resolves");
        pm.run(&mut ir);
        generate_program(&ir, CodegenOpts::default()).expect("codegen")
    }

    #[test]
    fn reports_are_byte_equal_to_a_machine_measurement() {
        let fleet_spec = SecretSpec {
            arg_index: 0,
            class0: 0x0F0F_0F0F,
            class1: -0x6543_2110,
        };
        let cases = [
            (compile(BRANCHY, false), "check", 2, spec(), 0..1000),
            // Draws repeat: the memo hits while the public argument varies.
            (compile(BRANCHY, false), "check", 2, spec(), 0..4),
            (
                hardened_task(
                    "camera_pill",
                    teamplay_apps::camera_pill::SOURCE,
                    "encrypt",
                    "key",
                ),
                "encrypt",
                1,
                fleet_spec,
                0..4096,
            ),
            (
                hardened_task(
                    "spacewire",
                    teamplay_apps::spacewire::SOURCE,
                    "auth",
                    "token",
                ),
                "auth",
                1,
                fleet_spec,
                0..4096,
            ),
        ];
        for (program, func, arity, spec, range) in cases {
            let got =
                assess_leakage(&program, func, arity, spec, 48, range.clone(), 11).expect("assess");
            let want = machine_measure(&program, func, arity, spec, 48, range, 11)
                .0
                .expect("reference measurement");
            assert_eq!(
                serde_json::to_string(&got).expect("serialises"),
                serde_json::to_string(&want).expect("serialises"),
                "{func}"
            );
        }
    }

    #[test]
    fn the_rig_runs_each_distinct_argument_vector_once() {
        let encrypt = hardened_task(
            "camera_pill",
            teamplay_apps::camera_pill::SOURCE,
            "encrypt",
            "key",
        );
        // The secret is the only argument: two runs, however many traces.
        // The memo lives for one assessment, so each of these three makes
        // its two runs again.
        for traces in [1, 48, 256] {
            let (report, ran) =
                counted_assessment(&encrypt, "encrypt", 1, spec(), traces, 0..4096, 11);
            let want = machine_measure(&encrypt, "encrypt", 1, spec(), traces, 0..4096, 11);
            assert_eq!(ran, [[spec().class0], [spec().class1]], "{traces} traces");
            assert_eq!(report, want.0, "{traces} traces");
        }
        // Two arguments: one run per distinct (secret, public) vector, at
        // its first draw.
        let branchy = compile(BRANCHY, false);
        for (range, traces) in [(0..4, 48), (0..1000, 48), (0..2, 1)] {
            let (report, ran) =
                counted_assessment(&branchy, "check", 2, spec(), traces, range.clone(), 5);
            let (want, every_run) = machine_measure(&branchy, "check", 2, spec(), traces, range, 5);
            assert_eq!(ran, first_occurrences(&every_run));
            assert_eq!(report, want);
        }
    }

    #[test]
    fn a_trapping_run_fails_as_the_unmemoised_loop_does() {
        // Unknown function: the first run traps.
        let branchy = compile(BRANCHY, false);
        let got = assess_leakage(&branchy, "missing", 2, spec(), 8, 0..4, 1);
        let (want, every_run) = machine_measure(&branchy, "missing", 2, spec(), 8, 0..4, 1);
        assert_eq!(got, want);
        assert!(matches!(
            got,
            Err(AssessError::Machine(MachineError::UnknownFunction(_)))
        ));
        assert_eq!(every_run.len(), 1);

        // A trap that depends on the secret and on the public draw: class 1
        // indexes far past the data segment, but only once x reaches 3.
        let peek = compile(
            "int t[4];
            int peek(int k, int x) {
                int r = x;
                if (x > 2) { r = t[k]; }
                return r;
            }",
            false,
        );
        let far = SecretSpec {
            arg_index: 0,
            class0: 1,
            class1: 0x0400_0000,
        };
        let (got, ran) = counted_assessment(&peek, "peek", 2, far, 64, 0..4, 9);
        let (want, every_run) = machine_measure(&peek, "peek", 2, far, 64, 0..4, 9);
        assert!(matches!(want, Err(AssessError::Machine(_))), "{want:?}");
        assert_eq!(got, want);
        assert_eq!(ran, first_occurrences(&every_run));
        assert!(
            ran.len() < every_run.len(),
            "the trap comes after memo hits"
        );
        assert_eq!(assess_leakage(&peek, "peek", 2, far, 64, 0..4, 9), want);
    }
}
