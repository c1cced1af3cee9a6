//! End-to-end and per-layer benchmark of the TeamPlay toolchain.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pill_cold --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Every workload is one process and a closed loop: one caller, one
//! request at a time, all work on an explicit one-thread pool, so no
//! parallel speed-up can enter a figure. Timed figures are the thread's
//! CPU seconds. The workload seed drives everything seeded: the FPA
//! searches, the frame inputs and secrets, the fault plans and the
//! leakage draws.
//!
//! * `pill_cold`: the camera-pill workflow with fresh caches and no
//!   store, the compile-bound path. Iteration `k` searches under its own
//!   seed drawn from the workload seed, so a run's median spans several
//!   searches; iteration 0 repeats the set-up's search and must match it
//!   byte for byte.
//! * `warm_rerun`: camera pill and SpaceWire rerun against a persistent
//!   store filled during set-up: every evaluation is a disk hit, so no
//!   search compiles and the store's read path dominates.
//! * `fleet`: seeded fault campaigns on four tuned kernels and leakage
//!   assessment of the two hardened secure tasks; no compiler runs in
//!   timed work.
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics; with `--trace 1` the per-layer metrics of a
//! separate run that replays each step inside a span. A traced run also
//! writes a Chrome trace-event file under `perfbench/out/`.

mod apps;
mod clock;
mod fleet;
mod replay;
mod trace;

use apps::{fingerprint, App, Figures, FrameInput};
use clock::{peak_rss_mb, steal_s, thread_cpu_s};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use teamplay::predictable::{PredictableOutcome, PredictableWorkflow};
use teamplay_compiler::DiskStore;
use trace::{span, Summary};

/// An untraced run sets up at least this many times, and until the
/// set-ups used [`SETUP_CPU_S`]; `setup_s` is their median.
const SETUPS: usize = 3;
/// CPU seconds an untraced run spends on set-ups at least, so a cheap
/// set-up is sampled often enough for a steady median.
const SETUP_CPU_S: f64 = 1.0;
/// Timed iterations a run makes even past its time budget.
const MIN_ITERATIONS: usize = 3;
/// Where runs leave their reports, traces and stores.
const OUT_DIR: &str = "perfbench/out";

/// A stable 64-bit mix of `seed` and `salt` (SplitMix64 finaliser), so
/// every seeded input is a function of the workload seed alone.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Clone, Copy)]
enum Workload {
    PillCold,
    WarmRerun,
    Fleet,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "pill_cold" => Workload::PillCold,
                    "warm_rerun" => Workload::WarmRerun,
                    "fleet" => Workload::Fleet,
                    _ => return Err(format!("unknown workload `{value}`")),
                })
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Operations attempted and failed, with the first failure kept.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("failed: {e}");
                self.first_error.get_or_insert(e);
                None
            }
        }
    }

    /// Fold a check of an already counted operation into the tally.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            let e = what();
            eprintln!("failed: {e}");
            self.first_error.get_or_insert(e);
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Name, value and unit of one reported metric.
type Metric = (&'static str, f64, &'static str);

/// CPU seconds of `f` on this thread.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = thread_cpu_s();
    let out = f();
    (out, thread_cpu_s() - t0)
}

/// Keep iterating until `seconds` of wall time have passed (and at least
/// [`MIN_ITERATIONS`] ran).
struct Budget {
    start: Instant,
    seconds: f64,
    done: usize,
}

impl Budget {
    fn new(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
            done: 0,
        }
    }

    fn next(&mut self) -> Option<usize> {
        let more = self.done < MIN_ITERATIONS || self.start.elapsed().as_secs_f64() < self.seconds;
        let k = self.done;
        self.done += 1;
        more.then_some(k)
    }
}

fn figures_metrics(f: &Figures) -> Vec<Metric> {
    vec![
        ("wcet_cycles", f.wcet_cycles as f64, "cycles"),
        ("wcec_uj", f.wcec_uj, "uJ"),
        ("code_halfwords", f.code_halfwords as f64, "halfwords"),
        ("frame_cycles", f.frame_cycles as f64, "cycles"),
        ("frame_energy_uj", f.frame_energy_uj, "uJ"),
    ]
}

fn sum_figures(all: &[Figures]) -> Figures {
    Figures {
        wcet_cycles: all.iter().map(|f| f.wcet_cycles).sum(),
        wcec_uj: all.iter().map(|f| f.wcec_uj).sum(),
        code_halfwords: all.iter().map(|f| f.code_halfwords).sum(),
        frame_cycles: all.iter().map(|f| f.frame_cycles).sum(),
        frame_energy_uj: all.iter().map(|f| f.frame_energy_uj).sum(),
        obligations: all.iter().map(|f| f.obligations).sum(),
    }
}

/// One app of a workload: its seeded frame, the frame's expected output
/// and the app's search seed.
struct Job {
    app: App,
    input: FrameInput,
    expected: Vec<(u8, i32)>,
    search_seed: u64,
}

impl Job {
    /// The `index`-th app of a workload seeded by `seed`. The expected
    /// output is the interpreter's, checked against the Rust references.
    fn new(app: App, seed: u64, index: u64) -> Result<Job, String> {
        let salt = 0xF0 + 2 * index;
        let input = FrameInput {
            frame_seed: derive(seed, salt) as u32,
            secret: derive(seed, salt + 1) as i32,
        };
        let expected = app.interpreted(input)?;
        if expected != app.rust_reference(input) {
            return Err(format!(
                "{}: interpreter differs from the Rust reference",
                app.name()
            ));
        }
        Ok(Job {
            app,
            input,
            expected,
            search_seed: derive(seed, 0x100 + index),
        })
    }

    fn run(&self, search_seed: u64, store: Option<&Path>) -> Result<PredictableOutcome, String> {
        let mut cfg = self.app.config(search_seed);
        cfg.store_dir = store.map(|p| p.display().to_string());
        PredictableWorkflow::new(cfg)
            .run_on(&minipool::Pool::new(1), self.app.source())
            .map_err(|e| format!("{}: {e}", self.app.name()))
    }

    fn replay(&self, search_seed: u64, store: Option<&Path>) -> Result<PredictableOutcome, String> {
        let disk = store
            .map(DiskStore::open)
            .transpose()
            .map_err(|e| e.to_string())?;
        replay::workflow(
            &self.app.config(search_seed),
            self.app.source(),
            disk.as_ref(),
        )
    }

    fn check(&self, outcome: &PredictableOutcome) -> Result<Figures, String> {
        self.app.check(outcome, self.input, &self.expected)
    }
}

/// Traced and untraced outcomes must agree byte for byte, store counters
/// included.
fn same_outcome(traced: &PredictableOutcome, plain: &PredictableOutcome) -> Result<(), String> {
    if fingerprint(traced) != fingerprint(plain) || traced.search != plain.search {
        return Err("traced replay differs from the untraced outcome".into());
    }
    Ok(())
}

/// The per-layer recording of a traced run.
struct Traced {
    /// Spans and counters of the traced iterations.
    layers: Summary,
    /// Spans and counters of the set-up.
    setup: Summary,
    /// Traced iterations recorded.
    iterations: usize,
    /// Median traced minus median untraced iteration CPU seconds.
    overhead_s: f64,
    /// Median share of a traced iteration that its layer spans cover.
    coverage: f64,
}

/// What a workload's closed loop measured.
struct Measured {
    setup_s: Vec<f64>,
    iteration_cpu_s: Vec<f64>,
    iteration_wall_s: Vec<f64>,
    traced: Option<Traced>,
}

/// The closed loop every workload runs. Set up (several times in an
/// untraced run, each set-up agreeing with the first on its key), then
/// iterate for the time budget: each iteration runs untraced and timed
/// and is checked outside the timing; in a traced run the same iteration
/// is then replayed inside the recording, replay checks included, and
/// `replay` reports the CPU seconds of the replay alone. `root` names the
/// span a traced iteration runs under.
fn drive<S, K: PartialEq, P>(
    args: &Args,
    tally: &mut Tally,
    root: &str,
    mut set_up: impl FnMut() -> Result<(S, K), String>,
    mut run: impl FnMut(&S, usize) -> Result<P, String>,
    mut check: impl FnMut(&mut Tally, &S, &K, usize, &P),
    mut replay: impl FnMut(&S, usize, &P) -> (Result<(), String>, f64),
) -> Option<(K, Measured)> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut setup_layers = Summary::default();
    let mut first: Option<(S, K)> = None;
    let more_setups = |done: &[f64]| {
        if args.trace {
            done.is_empty()
        } else {
            done.len() < SETUPS || done.iter().sum::<f64>() < SETUP_CPU_S
        }
    };
    while more_setups(&setup_s) {
        let ((result, cpu), layers) = trace::recorded(args.trace, || timed(&mut set_up));
        setup_s.push(cpu);
        setup_layers = layers;
        let (state, key) = tally.record(result)?;
        match &mut first {
            Some((kept, first_key)) => {
                tally.check(*first_key == key, || "set-ups differ".into());
                *kept = state;
            }
            None => first = Some((state, key)),
        }
    }
    let (state, key) = first?;

    let mut budget = Budget::new(args.seconds);
    let (mut plain, mut wall_s, mut traced, mut coverage) = (vec![], vec![], vec![], vec![]);
    let mut layers = Summary::default();
    while let Some(k) = budget.next() {
        let wall = Instant::now();
        let (result, cpu) = timed(|| run(&state, k));
        wall_s.push(wall.elapsed().as_secs_f64());
        let Some(out) = tally.record(result) else {
            continue;
        };
        plain.push(cpu);
        check(tally, &state, &key, k, &out);
        if args.trace {
            let ((result, cpu), recording) = trace::recorded(true, || {
                let r = replay(&state, k, &out);
                coverage.push(trace::coverage_of_last(root));
                r
            });
            layers.merge(recording);
            if tally
                .record(result.map_err(|e| format!("iteration {k}: {e}")))
                .is_some()
            {
                traced.push(cpu);
            }
        }
    }
    let traced = args.trace.then(|| Traced {
        layers,
        setup: setup_layers,
        iterations: traced.len(),
        overhead_s: median(&traced) - median(&plain),
        coverage: median(&coverage),
    });
    let measured = Measured {
        setup_s,
        iteration_cpu_s: plain,
        iteration_wall_s: wall_s,
        traced,
    };
    Some((key, measured))
}

/// The camera-pill workflow, cold. Set-up computes the frame references
/// and runs the workflow once under the first search seed; iteration `k`
/// searches under the `k`-th seed, so iteration 0 repeats the set-up.
fn pill_cold(args: &Args, tally: &mut Tally) -> Option<(Figures, Measured)> {
    let job = tally.record(Job::new(App::Pill, args.seed, 0))?;
    let search_seed = |k: usize| derive(job.search_seed, k as u64);
    let ((_, figures), measured) = drive(
        args,
        tally,
        "workflow",
        || {
            let job = Job::new(App::Pill, args.seed, 0)?;
            let outcome = job.run(search_seed(0), None)?;
            Ok(((), (fingerprint(&outcome), job.check(&outcome)?)))
        },
        |_, k| job.run(search_seed(k), None),
        |tally, _, (fp, figures), k, outcome| {
            let checked = tally.record(job.check(outcome));
            if k == 0 {
                let same = fingerprint(outcome) == *fp && checked.as_ref() == Some(figures);
                tally.check(same, || {
                    "iteration 0 differs from the set-up run of the same seed".into()
                });
            }
        },
        |_, k, outcome| {
            let (replayed, cpu) = timed(|| job.replay(search_seed(k), None));
            let checked = replayed.and_then(|r| {
                job.check(&r)?;
                same_outcome(&r, outcome)
            });
            (checked, cpu)
        },
    )?;
    Some((figures, measured))
}

/// A store directory under [`OUT_DIR`], removed when dropped.
struct Store(PathBuf);

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Camera pill and SpaceWire rerun against a store. Set-up computes the
/// frame references and fills a fresh store with one cold run of each
/// (traced in a traced run, so the store writes are recorded); every
/// iteration reruns both and must reproduce the cold outcomes byte for
/// byte without missing the store.
fn warm_rerun(args: &Args, tally: &mut Tally) -> Option<(Figures, Measured)> {
    let mut stores = 0;
    let ((_, figures), measured) = drive(
        args,
        tally,
        "workflow",
        || {
            stores += 1;
            let store = Store(Path::new(OUT_DIR).join(format!(
                "store-{}-{}-{stores}",
                std::process::id(),
                args.seed
            )));
            let jobs = [
                Job::new(App::Pill, args.seed, 0)?,
                Job::new(App::SpaceWire, args.seed, 1)?,
            ];
            let (mut fps, mut figures) = (Vec::new(), Vec::new());
            for job in &jobs {
                let outcome = if args.trace {
                    job.replay(job.search_seed, Some(&store.0))?
                } else {
                    job.run(job.search_seed, Some(&store.0))?
                };
                fps.push(fingerprint(&outcome));
                figures.push(job.check(&outcome)?);
            }
            Ok(((jobs, store), (fps, sum_figures(&figures))))
        },
        |(jobs, store), _| {
            jobs.iter()
                .map(|job| job.run(job.search_seed, Some(&store.0)))
                .collect::<Result<Vec<_>, _>>()
        },
        |tally, (jobs, _), (fps, figures), k, outcomes| {
            let mut rerun = Vec::new();
            for ((job, outcome), fp) in jobs.iter().zip(outcomes).zip(fps) {
                tally.check(
                    fingerprint(outcome) == *fp && outcome.search.disk_misses == 0,
                    || {
                        format!(
                            "iteration {k}: {} differs from its cold run",
                            job.app.name()
                        )
                    },
                );
                if let Some(f) = tally.record(job.check(outcome)) {
                    rerun.push(f);
                }
            }
            tally.check(sum_figures(&rerun) == *figures, || {
                format!("iteration {k}: figures differ from the cold runs")
            });
        },
        |(jobs, store), _, outcomes| {
            let (replayed, cpu) = timed(|| {
                jobs.iter()
                    .map(|job| job.replay(job.search_seed, Some(&store.0)))
                    .collect::<Result<Vec<_>, _>>()
            });
            let checked = replayed.and_then(|replayed| {
                for ((job, r), outcome) in jobs.iter().zip(&replayed).zip(outcomes) {
                    job.check(r)?;
                    same_outcome(r, outcome)?;
                }
                Ok(())
            });
            (checked, cpu)
        },
    )?;
    Some((figures, measured))
}

/// Rounds of the verification fleets. Every round must observe exactly
/// what round 0 did; the fleet's figures are its kernels' static bounds
/// and golden runs.
fn fleet(args: &Args, tally: &mut Tally) -> Option<(Figures, Measured)> {
    let mut first: Option<fleet::Round> = None;
    let (bounds, measured) = drive(
        args,
        tally,
        "round",
        || {
            let fleet = fleet::Fleet::set_up(args.seed)?;
            let bounds = fleet.bounds();
            Ok((fleet, bounds))
        },
        |fleet, _| fleet.round(),
        |tally, _, _, k, round| match &first {
            Some(f) => tally.check(f == round, || format!("round {k} differs from round 0")),
            None => first = Some(round.clone()),
        },
        |fleet, _, round| {
            let (replayed, cpu) = timed(|| span("round", || fleet.round()));
            let checked = replayed.and_then(|r| match r == *round {
                true => Ok(()),
                false => Err("traced round differs".into()),
            });
            (checked, cpu)
        },
    )?;
    let first = first?;
    let (wcet_cycles, wcec_uj, code_halfwords) = bounds;
    let figures = Figures {
        wcet_cycles,
        wcec_uj,
        code_halfwords,
        frame_cycles: first.golden_cycles,
        frame_energy_uj: first.golden_energy_uj,
        obligations: 0,
    };
    Some((figures, measured))
}

/// The per-layer metrics of a traced run, per traced iteration (store
/// writes per set-up).
fn layer_metrics(traced: &Traced) -> Vec<Metric> {
    let (layers, setup, n) = (&traced.layers, &traced.setup, traced.iterations);
    let per = |v: f64| if n == 0 { 0.0 } else { v / n as f64 };
    let t = |names: &[&str]| per(names.iter().map(|s| layers.total(s)).sum());
    let c = |name: &str| per(layers.counter(name));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let rate = |count: f64, seconds: f64| ratio(count, seconds);
    let lookups = layers.counter("compiler.cache_lookups");
    vec![
        ("compiler.passes_s", t(&["run_passes"]), "s"),
        (
            "compiler.pass_invocations",
            c("compiler.pass_invocations"),
            "count",
        ),
        ("compiler.pass_changes", c("compiler.pass_changes"), "count"),
        ("compiler.codegen_s", t(&["generate_program"]), "s"),
        (
            "wcet.analyze_s",
            t(&["analyze_program_cached", "analyze_program"]),
            "s",
        ),
        (
            "energy.analyze_s",
            t(&["analyze_program_energy_cached", "analyze_program_energy"]),
            "s",
        ),
        (
            "wcet.memo_hit_ratio",
            ratio(
                layers.counter("wcet.memo_hits"),
                layers.counter("wcet.memo_lookups"),
            ),
            "ratio",
        ),
        (
            "compiler.search_s",
            t(&["MultiObjectiveFpa::run_on_seeded"]),
            "s",
        ),
        ("compiler.evaluations", c("compiler.evaluations"), "count"),
        (
            "compiler.configs_compiled",
            c("compiler.configs_compiled"),
            "count",
        ),
        (
            "compiler.cache_hit_ratio",
            ratio(layers.counter("compiler.cache_hits"), lookups),
            "ratio",
        ),
        (
            "compiler.final_build_s",
            t(&["compile_module_per_function_on"]),
            "s",
        ),
        ("store.load_s", t(&["DiskStore::load"]), "s"),
        ("store.loads", c("store.loads"), "count"),
        ("store.bytes_read", c("store.bytes_read"), "B"),
        (
            "store.disk_hit_ratio",
            ratio(
                layers.counter("store.disk_hits"),
                layers.counter("store.loads"),
            ),
            "ratio",
        ),
        ("store.write_s", setup.total("DiskStore::store"), "s"),
        (
            "store.bytes_written",
            setup.counter("store.bytes_written"),
            "B",
        ),
        ("security.leakage_s", t(&["assess_leakage"]), "s"),
        ("security.leak_traces", c("security.leak_traces"), "count"),
        (
            "security.leak_traces_per_s",
            rate(
                layers.counter("security.leak_traces"),
                layers.total("assess_leakage"),
            ),
            "1/s",
        ),
        ("sim.fault.campaign_s", t(&["run_campaign"]), "s"),
        ("sim.fault.injections", c("sim.fault.injections"), "count"),
        (
            "sim.fault.injections_per_s",
            rate(
                layers.counter("sim.fault.injections"),
                layers.total("run_campaign"),
            ),
            "1/s",
        ),
        (
            "sim.machine.mcycles_per_s",
            rate(
                layers.counter("sim.machine.cycles") / 1e6,
                layers.total("Machine::call"),
            ),
            "Mcycles/s",
        ),
        (
            "sim.decoded.mcycles_per_s",
            rate(
                layers.counter("sim.decoded.cycles") / 1e6,
                layers.total("DecodedEngine::call"),
            ),
            "Mcycles/s",
        ),
        ("coord.schedule_s", t(&["schedule_energy_aware"]), "s"),
        (
            "coord.glue_s",
            t(&["generate_parallel_glue_with_pipelines"]),
            "s",
        ),
        ("contracts.prove_s", t(&["prove"]), "s"),
        ("contracts.verify_s", t(&["verify_certificate"]), "s"),
        (
            "minic.frontend_s",
            t(&["parse_and_check", "extract_model", "lower_program"]),
            "s",
        ),
        ("security.ladderise_s", t(&["ladderise"]), "s"),
        ("trace.overhead_s", traced.overhead_s, "s"),
        ("trace.layer_coverage", traced.coverage, "ratio"),
    ]
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload pill_cold|warm_rerun|fleet --seed N --seconds S --trace 0|1\n{e}");
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    let wall = Instant::now();
    let steal0 = steal_s();
    let mut tally = Tally::default();
    type Run = fn(&Args, &mut Tally) -> Option<(Figures, Measured)>;
    let (name, run): (&str, Run) = match args.workload {
        Workload::PillCold => ("pill_cold", pill_cold),
        Workload::WarmRerun => ("warm_rerun", warm_rerun),
        Workload::Fleet => ("fleet", fleet),
    };
    let result = run(&args, &mut tally);

    let mut metrics = Vec::new();
    let mut largest = String::new();
    let (mut setup_s, mut cpu_s, mut wall_s) = (Vec::new(), Vec::new(), Vec::new());
    if let Some((figures, measured)) = &result {
        setup_s.clone_from(&measured.setup_s);
        cpu_s.clone_from(&measured.iteration_cpu_s);
        wall_s.clone_from(&measured.iteration_wall_s);
        match &measured.traced {
            None => {
                metrics.push(("setup_s", median(&measured.setup_s), "s"));
                metrics.push(("workflow_s", median(&measured.iteration_cpu_s), "s"));
                metrics.extend(figures_metrics(figures));
                metrics.push(("peak_rss_mb", peak_rss_mb(), "MB"));
            }
            Some(traced) => {
                metrics = layer_metrics(traced);
                let roots = ["workflow", "round"];
                if let Some((layer, l)) = traced
                    .layers
                    .layers
                    .iter()
                    .filter(|(layer, _)| !roots.contains(layer))
                    .max_by(|a, b| a.1.self_s.total_cmp(&b.1.self_s))
                {
                    largest = format!(
                        "{layer} ({:.3} s self over {} traced iterations)",
                        l.self_s, traced.iterations
                    );
                }
                let path = out_dir.join(format!("{name}-seed{}.trace.json", args.seed));
                if let Err(e) = std::fs::write(&path, trace::chrome_json(&traced.layers)) {
                    eprintln!("cannot write {}: {e}", path.display());
                }
            }
        }
    }
    let steal = match (steal0, steal_s()) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    let diagnostics = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"trace\": {}, \"pool_width\": 1, \"available_parallelism\": {}, \"wall_s\": {}, \"steal_s\": {steal}, \"setup_cpu_s\": {:?}, \"iterations\": {}, \"iteration_cpu_s\": {:?}, \"iteration_wall_s\": {:?}, \"largest_self_time_layer\": \"{largest}\", \"first_error\": {:?}}}",
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        wall.elapsed().as_secs_f64(),
        setup_s,
        cpu_s.len(),
        cpu_s,
        wall_s,
        tally.first_error.clone().unwrap_or_default(),
    );
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        json_metrics(&metrics)
    );
    let report_path = out_dir.join(format!(
        "{name}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::write(
        &report_path,
        format!("{{\"diagnostics\": {diagnostics}, \"result\": {result}}}\n"),
    );
    println!("{{\"diagnostics\": {diagnostics}}}");
    println!("{result}");
}
