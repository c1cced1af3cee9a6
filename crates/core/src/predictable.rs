//! The TeamPlay workflow for predictable architectures (paper Fig. 1).

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use teamplay_compiler::{
    pareto_search, CompilerConfig, DiskStore, EvalCache, FpaConfig, PipelineCatalog, SearchRequest,
    SearchStats, TaskVariant,
};
use teamplay_contracts::{prove, Certificate, ProveError, TaskEvidence};
use teamplay_coord::{
    generate_parallel_glue_with_pipelines, schedule_energy_aware, CoordTask, ExecOption, GlueError,
    Schedule, ScheduleError, TaskSet,
};
use teamplay_csl::{extract_model, CslError, CslModel, SecurityReq, TaskSpec};
use teamplay_energy::IsaEnergyModel;
use teamplay_isa::{CycleModel, Program};
use teamplay_minic::{lower::lower_program, parse_and_check, FrontendError};
use teamplay_security::{assess_leakage, ladderise, LadderReport, LeakageReport, SecretSpec};
use teamplay_sim::{seeded_inputs, simulate_batch, DecodedProgram, GroundTruthEnergy};

/// Configuration of the predictable workflow: platform models, clock and
/// search budget.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkflowConfig {
    /// Timing model of the target core.
    pub cycle_model: CycleModel,
    /// Analytical energy model (conservative datasheet).
    pub energy_model: IsaEnergyModel,
    /// Ground-truth model for measurement-based steps (leakage runs).
    pub truth: GroundTruthEnergy,
    /// Core clock (MHz) for cycle→time conversion.
    pub clock_mhz: f64,
    /// FPA search budget per task.
    pub fpa: FpaConfig,
    /// Leakage traces per secret class.
    pub leakage_traces: usize,
    /// Search seed (determinism).
    pub seed: u64,
    /// Named pipelines the workflow selects from — the generic levels
    /// plus every application's tuned pipeline.
    pub pipelines: PipelineCatalog,
    /// Catalogue name (or literal pipeline string) compiled into the
    /// final build's non-task functions.
    pub default_pipeline: String,
    /// Opt-in measurement step: simulate every front variant on the
    /// pre-decoded engine and report the observed-vs-IPET gap per task.
    /// `None` (the default) skips the step entirely.
    pub measure: Option<MeasureConfig>,
    /// Optional persistent evaluation store (a
    /// [`teamplay_compiler::DiskStore`] directory): the search
    /// warm-starts from it and spills back to it, so repeated workflow
    /// runs — across processes — skip compilation of every
    /// configuration they have seen before. `None` (the default) keeps
    /// all caching in-memory.
    pub store_dir: Option<String>,
}

/// Configuration of the opt-in measurement step.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MeasureConfig {
    /// Seeded input vectors simulated per variant.
    pub runs: usize,
    /// Inclusive lower bound of the argument range.
    pub input_lo: i32,
    /// Exclusive upper bound of the argument range. A workflow whose
    /// range is empty fails with [`WorkflowError::Compile`] before any
    /// search runs.
    pub input_hi: i32,
}

impl MeasureConfig {
    /// A dozen runs over a small signed range — enough to exercise both
    /// branch polarities of typical kernels without dominating workflow
    /// time.
    pub fn standard() -> MeasureConfig {
        MeasureConfig {
            runs: 12,
            input_lo: -64,
            input_hi: 64,
        }
    }
}

/// Observed behaviour of one Pareto-front variant under the measurement
/// step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariantMeasurement {
    /// Index of the variant on its task's front.
    pub variant: usize,
    /// The variant's static IPET bound (cycles).
    pub ipet_cycles: u64,
    /// Worst observed cycles across the seeded runs.
    pub observed_max_cycles: u64,
    /// `observed_max_cycles / ipet_cycles` — the per-variant tightness
    /// evidence (must be ≤ 1 by IPET soundness).
    pub observed_over_ipet: f64,
    /// Worst observed ground-truth energy across the runs (pJ).
    pub observed_max_energy_pj: f64,
    /// Seeded runs simulated.
    pub runs: usize,
}

/// Measurement results for one task's whole Pareto front.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskMeasurement {
    /// Task name.
    pub task: String,
    /// Implementing function.
    pub function: String,
    /// One record per front variant, in front order.
    pub variants: Vec<VariantMeasurement>,
}

impl WorkflowConfig {
    /// The Cortex-M0-like PG32 target at 48 MHz (camera pill, DL M0 leg).
    pub fn pg32() -> WorkflowConfig {
        WorkflowConfig {
            cycle_model: CycleModel::pg32(),
            energy_model: IsaEnergyModel::pg32_datasheet(),
            truth: GroundTruthEnergy::pg32(),
            clock_mhz: 48.0,
            fpa: FpaConfig::standard(),
            leakage_traces: 48,
            seed: 0xC0FFEE,
            pipelines: teamplay_apps::catalog(),
            default_pipeline: "o2".to_string(),
            measure: None,
            store_dir: None,
        }
    }

    /// The LEON3/GR712RC-like target at 100 MHz (SpaceWire).
    pub fn leon3() -> WorkflowConfig {
        WorkflowConfig {
            cycle_model: CycleModel::leon3(),
            energy_model: IsaEnergyModel::leon3_datasheet(),
            truth: GroundTruthEnergy::leon3(),
            clock_mhz: 100.0,
            ..WorkflowConfig::pg32()
        }
    }
}

/// Per-task outcome of the workflow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskReport {
    /// Task name.
    pub name: String,
    /// Implementing function.
    pub function: String,
    /// The compiler configuration of the selected variant.
    pub selected_config: CompilerConfig,
    /// Variants the FPA offered for this task.
    pub variants_offered: usize,
    /// Final IPET-analysed WCET (µs, at the configured clock).
    pub wcet_us: f64,
    /// Final IPET-analysed worst-case energy (µJ).
    pub wcec_uj: f64,
    /// Ladderisation outcome (secure tasks only).
    pub ladder: Option<LadderReport>,
    /// Measured leakage (secure tasks only).
    pub leakage: Option<LeakageReport>,
}

/// Rung of the graceful-degradation ladder the coordinator settled on.
///
/// When the nominal contract is unschedulable, the workflow does not
/// give up immediately: it walks a ladder of progressively weaker — but
/// still explicit and certifiable — contracts, and records which rung
/// was actually proven. Each rung is only attempted when the source
/// declared the clause that enables it (`reliability(k)` for rung 1,
/// `degraded_deadline(t)` for rung 2); a source with neither degrades
/// straight to [`WorkflowError::Unschedulable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradationRung {
    /// Rung 0: the full nominal contract, re-execution slack included.
    Full,
    /// Rung 1: re-execution reservations dropped — the system stays on
    /// its nominal deadlines but loses fault-recovery guarantees.
    NoReexecution,
    /// Rung 2: degraded-mode deadlines substituted where declared
    /// (re-executions stay dropped) — the relaxed real-time contract.
    DegradedDeadline,
}

impl DegradationRung {
    /// Numeric form recorded in [`TaskEvidence::degradation_rung`].
    pub fn as_u8(self) -> u8 {
        match self {
            DegradationRung::Full => 0,
            DegradationRung::NoReexecution => 1,
            DegradationRung::DegradedDeadline => 2,
        }
    }
}

/// The "certified, coordinated binary" of Fig. 1.
#[derive(Debug, Clone)]
pub struct PredictableOutcome {
    /// The final PG32 program (per-task selected variants).
    pub program: Program,
    /// The extracted CSL task model.
    pub model: CslModel,
    /// The validated schedule.
    pub schedule: Schedule,
    /// The contract certificate.
    pub certificate: Certificate,
    /// The evidence the certificate binds to (for re-verification).
    pub evidence: HashMap<String, TaskEvidence>,
    /// Per-task reports.
    pub tasks: Vec<TaskReport>,
    /// Generated runtime glue code.
    pub glue: String,
    /// The degradation rung the coordinator settled on (recorded in
    /// every task's certificate evidence as well).
    pub degradation: DegradationRung,
    /// Merged search instrumentation across every task's Pareto front:
    /// total evaluations/generations, and the cache counters of the one
    /// [`EvalCache`] all fronts shared (so `cache_misses` is the number
    /// of distinct configurations compiled for the whole module).
    pub search: SearchStats,
    /// Observed-vs-IPET gap per task and front variant, from the opt-in
    /// measurement step. Empty unless [`WorkflowConfig::measure`] is set;
    /// tasks with array parameters are skipped (no scalar input vectors
    /// can drive them).
    pub measurements: Vec<TaskMeasurement>,
}

/// Workflow failures, in pipeline order.
#[derive(Debug)]
pub enum WorkflowError {
    /// Front-end (lex/parse/sema) failure.
    Frontend(FrontendError),
    /// CSL extraction failure.
    Csl(CslError),
    /// The source declares no tasks.
    NoTasks,
    /// A secure task still has secret-dependent branching after
    /// ladderisation.
    ResidualLeakRisk {
        /// The task.
        task: String,
        /// The hardening report.
        report: LadderReport,
    },
    /// Compilation or analysis of a variant failed.
    Compile(String),
    /// No variant assignment meets the deadlines, even after walking
    /// every declared rung of the degradation ladder.
    Unschedulable(ScheduleError),
    /// Glue generation found the schedule and task set inconsistent.
    Glue(GlueError),
    /// Leakage assessment failed to run.
    Security(String),
    /// The contract system rejected the budgets.
    Contract(ProveError),
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::Frontend(e) => write!(f, "front-end: {e}"),
            WorkflowError::Csl(e) => write!(f, "CSL: {e}"),
            WorkflowError::NoTasks => write!(f, "no `task` annotations found in the source"),
            WorkflowError::ResidualLeakRisk { task, report } => write!(
                f,
                "task `{task}` retains {} secret-dependent branch(es) after ladderisation",
                report.residual
            ),
            WorkflowError::Compile(msg) => write!(f, "compilation: {msg}"),
            WorkflowError::Unschedulable(e) => write!(f, "coordination: {e}"),
            WorkflowError::Glue(e) => write!(f, "coordination: {e}"),
            WorkflowError::Security(msg) => write!(f, "security analysis: {msg}"),
            WorkflowError::Contract(e) => write!(f, "contract system: {e}"),
        }
    }
}

impl std::error::Error for WorkflowError {}

impl From<FrontendError> for WorkflowError {
    fn from(e: FrontendError) -> Self {
        WorkflowError::Frontend(e)
    }
}
impl From<CslError> for WorkflowError {
    fn from(e: CslError) -> Self {
        WorkflowError::Csl(e)
    }
}

/// Walk the graceful-degradation ladder: try the nominal contract
/// (re-execution slack included), then — where the source declared the
/// enabling clauses — drop the re-execution reservations, then
/// substitute degraded-mode deadlines. Returns the first rung that
/// schedules, with the task set actually used; exhausting the ladder
/// reports the *last* rung's scheduling failure (the weakest contract
/// that was still infeasible).
///
/// The global deadline is recomputed per rung as the tightest per-task
/// deadline in effect, so rung 2 relaxes the frame end alongside the
/// substituted task deadlines.
fn schedule_with_degradation(
    model: &CslModel,
    nominal: &[CoordTask],
) -> Result<(TaskSet, Schedule, DegradationRung), WorkflowError> {
    let attempt =
        |tasks: Vec<CoordTask>| -> Result<Result<(TaskSet, Schedule), ScheduleError>, WorkflowError> {
            let deadline_us = tasks
                .iter()
                .filter_map(|t| t.deadline_us)
                .fold(f64::INFINITY, f64::min)
                .min(1e12);
            let set = TaskSet::new(tasks, vec!["cpu0".into()], deadline_us)
                .map_err(|e| WorkflowError::Compile(e.to_string()))?;
            Ok(match schedule_energy_aware(&set) {
                Ok(s) => Ok((set, s)),
                Err(e) => Err(e),
            })
        };
    // Rung 0 — the full nominal contract.
    let mut last = match attempt(nominal.to_vec())? {
        Ok((set, s)) => return Ok((set, s, DegradationRung::Full)),
        Err(e) => e,
    };
    // Rung 1 — drop re-execution reservations (only meaningful when the
    // source contracted any).
    if nominal.iter().any(|t| t.reexecutions > 0) {
        let relaxed: Vec<CoordTask> = nominal
            .iter()
            .cloned()
            .map(|t| t.with_reexecutions(0))
            .collect();
        match attempt(relaxed)? {
            Ok((set, s)) => return Ok((set, s, DegradationRung::NoReexecution)),
            Err(e) => last = e,
        }
    }
    // Rung 2 — degraded-mode deadlines where declared (re-executions
    // stay dropped: the degraded mode is the last resort before
    // reporting the system unschedulable).
    if model.tasks.iter().any(|t| t.degraded_deadline.is_some()) {
        let degraded: Vec<CoordTask> = nominal
            .iter()
            .cloned()
            .map(|mut t| {
                t.reexecutions = 0;
                if let Some(d) = model.task(&t.name).and_then(|spec| spec.degraded_deadline) {
                    t.deadline_us = Some(d.as_us());
                }
                t
            })
            .collect();
        match attempt(degraded)? {
            Ok((set, s)) => return Ok((set, s, DegradationRung::DegradedDeadline)),
            Err(e) => last = e,
        }
    }
    Err(WorkflowError::Unschedulable(last))
}

/// A coordination task for CSL task `t`, one execution option per
/// `(label, WCET cycles, WCEC pJ)`, carrying the task's ordering,
/// deadline, re-executions and security floor. Step 2 ladderised every
/// `security(ct)` task's function before the searches (erroring on
/// residual leaks), so each of its builds is hardened: rung 1.
fn coord_task(
    t: &TaskSpec,
    options: impl IntoIterator<Item = (String, u64, f64)>,
    clock_mhz: f64,
) -> CoordTask {
    let level = u32::from(t.security == Some(SecurityReq::ConstantTime));
    let options = options
        .into_iter()
        .map(|(label, cycles, pj)| ExecOption {
            label,
            core: "cpu0".into(),
            time_us: cycles as f64 / clock_mhz,
            energy_uj: pj / 1e6,
            security_level: level,
        })
        .collect();
    let mut ct = CoordTask::new(t.name.clone(), options);
    ct.after = t.after.clone();
    ct.deadline_us = t.deadline.map(|d| d.as_us());
    ct.reexecutions = t.reexecutions;
    ct.security_floor = t.security_floor;
    ct
}

/// The Fig. 1 toolchain driver.
#[derive(Debug, Clone)]
pub struct PredictableWorkflow {
    config: WorkflowConfig,
}

impl PredictableWorkflow {
    /// Create a workflow for the given target configuration.
    pub fn new(config: WorkflowConfig) -> PredictableWorkflow {
        PredictableWorkflow { config }
    }

    /// Run the full workflow on annotated Mini-C source, on the
    /// process-wide pool.
    ///
    /// # Errors
    /// See [`WorkflowError`]; every stage reports its own failure class so
    /// the developer knows which contract or analysis to fix.
    pub fn run(&self, source: &str) -> Result<PredictableOutcome, WorkflowError> {
        self.run_on(minipool::global(), source)
    }

    /// [`PredictableWorkflow::run`] on an explicit pool.
    ///
    /// # Errors
    /// See [`PredictableWorkflow::run`].
    pub fn run_on(
        &self,
        pool: &minipool::Pool,
        source: &str,
    ) -> Result<PredictableOutcome, WorkflowError> {
        let cfg = &self.config;
        if let Some(mc) = cfg.measure {
            if mc.input_lo >= mc.input_hi {
                return Err(WorkflowError::Compile(format!(
                    "measure: empty input range {}..{}",
                    mc.input_lo, mc.input_hi
                )));
            }
        }

        // 1. Front-end + CSL extraction.
        let ast = parse_and_check(source)?;
        let model = extract_model(&ast)?;
        if model.tasks.is_empty() {
            return Err(WorkflowError::NoTasks);
        }
        let mut ir = lower_program(&ast);

        // 2. SecurityOptimiser: ladderise secret-guarded code of secure
        //    tasks before any variant is generated.
        let mut ladder_reports: HashMap<String, LadderReport> = HashMap::new();
        for task in &model.tasks {
            if task.security != Some(SecurityReq::ConstantTime) {
                continue;
            }
            let secrets: std::collections::HashSet<String> = task.secrets.iter().cloned().collect();
            let f = ir
                .function_mut(&task.function)
                .expect("CSL extraction guarantees the function exists");
            let report = ladderise(f, &secrets);
            if !report.fully_hardened() {
                return Err(WorkflowError::ResidualLeakRisk {
                    task: task.name.clone(),
                    report,
                });
            }
            ladder_reports.insert(task.name.clone(), report);
        }

        // 3. Multi-criteria compilation: a Pareto front per task. The
        //    searches are independent (per-task seeds, shared read-only
        //    IR and models), so they fan out over the global pool; each
        //    search gets a slice of the remaining width for its own
        //    genome batches. Results come back in task-index order, so
        //    the outcome is identical to the sequential loop. All fronts
        //    share one evaluation cache over the module: different tasks
        //    probe largely the same configurations, so a configuration
        //    any task compiled is free for every other task (per-entry
        //    once-locks keep the sharing race-free and deterministic).
        //    Each search is seeded with the configured catalogue
        //    pipeline's genome (an app name selects the tuned per-app
        //    pipeline), so the FPA starts from the tuned point instead
        //    of the genome-space corners whenever it is representable.
        let default_pipeline = cfg
            .pipelines
            .resolve(&cfg.default_pipeline)
            .map_err(|e| WorkflowError::Compile(format!("default pipeline: {e}")))?;
        let default = CompilerConfig {
            pipeline: default_pipeline,
            ..CompilerConfig::balanced()
        };
        let seeds: Vec<Vec<f64>> = default.to_genome().into_iter().collect();
        let inner = pool.split_across(model.tasks.len());
        let disk =
            match &cfg.store_dir {
                Some(dir) => Some(DiskStore::open(dir).map_err(|e| {
                    WorkflowError::Compile(format!("evaluation store `{dir}`: {e}"))
                })?),
                None => None,
            };
        let cache = match &disk {
            Some(disk) => EvalCache::with_store(&ir, &cfg.cycle_model, &cfg.energy_model, disk),
            None => EvalCache::new(&ir, &cfg.cycle_model, &cfg.energy_model),
        };
        let fronts = pool.par_map(&model.tasks, |i, task| {
            let request = SearchRequest {
                seeds: &seeds,
                ..SearchRequest::new(&task.function, cfg.fpa, cfg.seed.wrapping_add(i as u64))
            };
            pareto_search(&inner, &cache, &request)
        });
        let mut search = SearchStats {
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            disk_hits: cache.disk_hits(),
            disk_misses: cache.disk_misses(),
            ..SearchStats::default()
        };
        let mut variants: HashMap<String, Vec<TaskVariant>> = HashMap::new();
        for (task, front) in model.tasks.iter().zip(fronts) {
            search.evaluations += front.stats.evaluations;
            search.generations += front.stats.generations;
            if front.variants.is_empty() {
                return Err(WorkflowError::Compile(format!(
                    "no analysable variant for task `{}` (unbounded loops?)",
                    task.name
                )));
            }
            variants.insert(task.name.clone(), front.variants);
        }

        // 3b. Opt-in measurement: every front variant simulated on the
        //     pre-decoded engine over deterministic seeded inputs, so the
        //     outcome carries observed-vs-IPET evidence next to the
        //     static bounds. Tasks with array parameters are skipped (no
        //     scalar input vectors can drive them).
        let mut measurements: Vec<TaskMeasurement> = Vec::new();
        if let Some(mc) = cfg.measure {
            for (ti, task) in model.tasks.iter().enumerate() {
                let func = ast.function(&task.function).expect("function exists");
                if func.params.iter().any(|p| p.is_array) {
                    continue;
                }
                let arg_count = func.params.len();
                let mut per_variant = Vec::new();
                for (vi, v) in variants[&task.name].iter().enumerate() {
                    let decoded =
                        DecodedProgram::with_models(&v.program, &cfg.cycle_model, &cfg.truth)
                            .map_err(|e| {
                                WorkflowError::Compile(format!(
                                    "measure: task `{}` variant {vi}: {e}",
                                    task.name
                                ))
                            })?;
                    let inputs = seeded_inputs(
                        cfg.seed ^ 0x3EA5_0000 ^ (((ti as u64) << 32) | vi as u64),
                        mc.runs,
                        arg_count,
                        mc.input_lo,
                        mc.input_hi,
                    );
                    let mut observed_cycles = 0u64;
                    let mut observed_energy = 0.0f64;
                    // Explicit watchdog: the variant's own IPET bound.
                    // By IPET soundness no run may exceed it, so a
                    // `CycleLimit` trap here is a genuine analysis or
                    // simulator defect surfacing — not a tuning knob.
                    for (run, r) in simulate_batch(
                        pool,
                        &decoded,
                        &task.function,
                        &inputs,
                        v.metrics.wcet_cycles,
                    )
                    .into_iter()
                    .enumerate()
                    {
                        let r = r.map_err(|e| {
                            WorkflowError::Compile(format!(
                                "measure: task `{}` variant {vi} run {run}: {e}",
                                task.name
                            ))
                        })?;
                        observed_cycles = observed_cycles.max(r.cycles);
                        observed_energy = observed_energy.max(r.energy_pj);
                    }
                    let ipet = v.metrics.wcet_cycles;
                    per_variant.push(VariantMeasurement {
                        variant: vi,
                        ipet_cycles: ipet,
                        observed_max_cycles: observed_cycles,
                        observed_over_ipet: observed_cycles as f64 / ipet as f64,
                        observed_max_energy_pj: observed_energy,
                        runs: inputs.len(),
                    });
                }
                measurements.push(TaskMeasurement {
                    task: task.name.clone(),
                    function: task.function.clone(),
                    variants: per_variant,
                });
            }
        }

        // 4. Coordination: multi-version selection under the deadlines,
        //    with re-execution slack reserved for `reliability(k)` tasks
        //    and the degradation ladder as the schedulability fallback.
        let coord_tasks: Vec<CoordTask> = model
            .tasks
            .iter()
            .map(|t| {
                let options = variants[&t.name]
                    .iter()
                    .enumerate()
                    .map(|(vi, v)| (format!("v{vi}"), v.metrics.wcet_cycles, v.metrics.wcec_pj));
                coord_task(t, options, cfg.clock_mhz)
            })
            .collect();
        let (_, provisional, _) = schedule_with_degradation(&model, &coord_tasks)?;

        // 5. Final build: every task keeps its selected variant's config.
        let mut chosen: HashMap<String, CompilerConfig> = HashMap::new();
        let mut chosen_by_task: HashMap<String, CompilerConfig> = HashMap::new();
        for task in &model.tasks {
            let entry = provisional.entry(&task.name).expect("scheduled");
            let vi: usize = entry
                .option
                .trim_start_matches('v')
                .parse()
                .expect("vN label");
            let config = variants[&task.name][vi].config.clone();
            chosen.insert(task.function.clone(), config.clone());
            chosen_by_task.insert(task.name.clone(), config);
        }
        // Non-task functions build under the configured catalogue
        // pipeline (a name like "o2"/"camera_pill", or a literal pass
        // list) with the balanced codegen knobs — the same `default`
        // configuration whose genome seeded the searches in step 3.
        // Every function compiles exactly as the search measured its
        // variant, through the search cache's compile memo, so most of
        // the build replays recorded pass and codegen work.
        //
        // 6. Re-analyse the final binary (callees may now differ from the
        //    per-variant estimates) and re-validate the schedule with the
        //    final numbers. The analysis goes through the search cache's
        //    per-function memo too: every function of the final build
        //    whose compiled form already appeared in some searched
        //    variant is a replay, not a re-analysis.
        let (program, metrics) = cache
            .final_build(&chosen, &default)
            .map_err(WorkflowError::Compile)?;
        let final_of = |t: &TaskSpec| metrics.of(&t.function).expect("analysed");
        let final_tasks: Vec<CoordTask> = model
            .tasks
            .iter()
            .map(|t| {
                let m = final_of(t);
                let options = [("final".to_string(), m.wcet_cycles, m.wcec_pj)];
                coord_task(t, options, cfg.clock_mhz)
            })
            .collect();
        let (final_set, schedule, rung) = schedule_with_degradation(&model, &final_tasks)?;

        // 7. SecurityAnalyser: measured leakage of secure tasks on the
        //    final binary.
        let mut leakage_reports: HashMap<String, LeakageReport> = HashMap::new();
        for task in &model.tasks {
            if task.security != Some(SecurityReq::ConstantTime) {
                continue;
            }
            let func = ast.function(&task.function).expect("function exists");
            if func.params.iter().any(|p| p.is_array) {
                return Err(WorkflowError::Security(format!(
                    "task `{}`: leakage assessment requires scalar parameters",
                    task.name
                )));
            }
            let arg_count = func.params.len();
            let secret_idx = func
                .params
                .iter()
                .position(|p| task.secrets.contains(&p.name))
                .ok_or_else(|| {
                    WorkflowError::Security(format!(
                        "task `{}` has a security requirement but no secret parameter",
                        task.name
                    ))
                })?;
            let report = assess_leakage(
                &program,
                &task.function,
                arg_count.max(1),
                SecretSpec {
                    arg_index: secret_idx,
                    class0: 0x0F0F_0F0F,
                    class1: -0x6543_2110,
                },
                cfg.leakage_traces,
                0..4096,
                cfg.seed ^ 0x5EC0_0001,
            )
            .map_err(|e| WorkflowError::Security(e.to_string()))?;
            leakage_reports.insert(task.name.clone(), report);
        }

        // 8. Contract system: prove every budget, emit the certificate.
        //    The scheduled finish counts the re-execution slack — the
        //    deadline claim holds even when every recovery run executes —
        //    and each task's evidence records the degradation rung the
        //    coordinator settled on. At rung 2 the proof runs against
        //    the effective model (degraded deadlines substituted), so
        //    the certificate certifies the contract actually deployed.
        let mut evidence: HashMap<String, TaskEvidence> = HashMap::new();
        for task in &model.tasks {
            let m = final_of(task);
            let finish = schedule
                .entry(&task.name)
                .map(|e| e.finish_us + e.recovery_us);
            evidence.insert(
                task.name.clone(),
                TaskEvidence {
                    wcet_us: m.wcet_cycles as f64 / cfg.clock_mhz,
                    wcec_pj: m.wcec_pj,
                    residual_branches: ladder_reports.get(&task.name).map(|r| r.residual),
                    leaks: leakage_reports.get(&task.name).map(|r| r.leaks()),
                    finish_us: finish,
                    degradation_rung: rung.as_u8(),
                },
            );
        }
        let effective_model = if rung == DegradationRung::DegradedDeadline {
            let mut m = model.clone();
            for t in &mut m.tasks {
                if let Some(d) = t.degraded_deadline {
                    t.deadline = Some(d);
                }
            }
            m
        } else {
            model.clone()
        };
        let certificate = prove("teamplay-system", &effective_model, &evidence)
            .map_err(WorkflowError::Contract)?;

        // 9. Coordination glue, recording each task's selected pipeline
        //    so the deployed runtime carries its variants' provenance.
        let task_pipelines: BTreeMap<String, String> = chosen_by_task
            .iter()
            .map(|(task, config)| (task.clone(), config.pipeline.to_string()))
            .collect();
        let glue = generate_parallel_glue_with_pipelines(&final_set, &schedule, &task_pipelines)
            .map_err(WorkflowError::Glue)?;

        let tasks = model
            .tasks
            .iter()
            .map(|t| {
                let ev = &evidence[&t.name];
                TaskReport {
                    name: t.name.clone(),
                    function: t.function.clone(),
                    selected_config: chosen_by_task[&t.name].clone(),
                    variants_offered: variants[&t.name].len(),
                    wcet_us: ev.wcet_us,
                    wcec_uj: ev.wcec_pj / 1e6,
                    ladder: ladder_reports.get(&t.name).copied(),
                    leakage: leakage_reports.get(&t.name).copied(),
                }
            })
            .collect();

        Ok(PredictableOutcome {
            program,
            model,
            schedule,
            certificate,
            evidence,
            tasks,
            glue,
            degradation: rung,
            search,
            measurements,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teamplay_contracts::verify_certificate;

    fn pill_workflow() -> PredictableWorkflow {
        let mut cfg = WorkflowConfig::pg32();
        cfg.fpa = FpaConfig::tiny();
        cfg.leakage_traces = 24;
        PredictableWorkflow::new(cfg)
    }

    #[test]
    fn camera_pill_pipeline_certifies_end_to_end() {
        let outcome = pill_workflow()
            .run(teamplay_apps::camera_pill::SOURCE)
            .expect("workflow succeeds");
        assert_eq!(outcome.tasks.len(), 4);
        // The certificate re-verifies against the emitted evidence.
        verify_certificate(&outcome.certificate, &outcome.evidence).expect("certificate checks");
        // Secure task was hardened and measured clean.
        let encrypt = outcome
            .tasks
            .iter()
            .find(|t| t.name == "encrypt")
            .expect("encrypt");
        assert!(encrypt.ladder.expect("hardened").fully_hardened());
        assert!(!encrypt.leakage.expect("measured").leaks());
        // Glue mentions every task, and records its selected pipeline.
        for t in &outcome.tasks {
            assert!(
                outcome.glue.contains(&format!("task_{}", t.name)),
                "{}",
                outcome.glue
            );
            assert!(
                outcome.glue.contains(&format!(
                    "tp_set_pipeline(\"{}\");",
                    t.selected_config.pipeline
                )),
                "pipeline of `{}` missing from glue:\n{}",
                t.name,
                outcome.glue
            );
        }
        // Schedule respects the pipeline deadline.
        assert!(outcome.schedule.makespan_us <= 40_000.0);
        // The frame has ample slack, so the full nominal contract holds:
        // no degradation rung was taken, and every task's evidence says so.
        assert_eq!(outcome.degradation, DegradationRung::Full);
        for ev in outcome.evidence.values() {
            assert_eq!(ev.degradation_rung, 0);
        }
        // `reliability(1)` on encrypt reserved one re-execution slot.
        let encrypt_entry = outcome.schedule.entry("encrypt").expect("scheduled");
        assert!(encrypt_entry.recovery_us > 0.0);
    }

    #[test]
    fn per_task_fronts_share_one_eval_cache() {
        let outcome = pill_workflow()
            .run(teamplay_apps::camera_pill::SOURCE)
            .expect("workflow succeeds");
        let s = &outcome.search;
        // Four tasks, each a full FPA budget.
        let fpa = FpaConfig::tiny();
        assert_eq!(
            s.evaluations,
            4 * fpa.population * (1 + fpa.iterations),
            "{s:?}"
        );
        assert_eq!(s.generations, 4 * fpa.iterations, "{s:?}");
        // Sharing compiles strictly less than the evaluation budget.
        assert!(s.cache_misses < s.evaluations, "{s:?}");
        // Probes from the searches plus one per reconstructed variant.
        let offered: usize = outcome.tasks.iter().map(|t| t.variants_offered).sum();
        assert_eq!(
            s.cache_hits + s.cache_misses,
            s.evaluations + offered,
            "{s:?}"
        );
    }

    #[test]
    fn shared_cache_compiles_less_than_per_task_caches() {
        use teamplay_compiler::{pareto_search, EvalCache, SearchRequest};
        // The ROADMAP follow-up, measured: four tasks of one module
        // searched against one shared cache compile strictly fewer
        // distinct configurations than the same searches with a cache
        // each — tasks revisit each other's configurations.
        let ir =
            teamplay_minic::compile_to_ir(teamplay_apps::camera_pill::SOURCE).expect("front-end");
        let cfg = WorkflowConfig::pg32();
        let pool = minipool::global();
        let shared = EvalCache::new(&ir, &cfg.cycle_model, &cfg.energy_model);
        let mut individual_misses = 0usize;
        for (i, func) in ["capture", "compress", "encrypt", "transmit"]
            .iter()
            .enumerate()
        {
            let seed = cfg.seed.wrapping_add(i as u64);
            let request = SearchRequest::new(func, FpaConfig::tiny(), seed);
            let own = EvalCache::new(&ir, &cfg.cycle_model, &cfg.energy_model);
            pareto_search(pool, &own, &request);
            individual_misses += own.misses();
            pareto_search(pool, &shared, &request);
        }
        assert!(
            shared.misses() < individual_misses,
            "shared {} vs individual {}",
            shared.misses(),
            individual_misses
        );
    }

    #[test]
    fn seeded_search_covers_the_tuned_pipeline_at_generation_zero() {
        use teamplay_compiler::{pareto_search, EvalCache, SearchRequest};
        // The ROADMAP follow-up from PR 3: seeding the FPA with the
        // app's recommended pipeline genome makes the generation-0 front
        // weakly dominate the tuned point — the search starts *at* the
        // tuned configuration rather than having to rediscover it.
        let ir =
            teamplay_minic::compile_to_ir(teamplay_apps::camera_pill::SOURCE).expect("front-end");
        let cfg = WorkflowConfig::pg32();
        let tuned = CompilerConfig {
            pipeline: cfg.pipelines.resolve("camera_pill").expect("registered"),
            ..CompilerConfig::balanced()
        };
        let genome = tuned
            .to_genome()
            .expect("camera_pill pipeline is representable");
        let cache = EvalCache::new(&ir, &cfg.cycle_model, &cfg.energy_model);
        let tuned_metrics = *cache
            .evaluate(&tuned)
            .expect("compiles")
            .1
            .of("compress")
            .expect("task");
        let gen0 = FpaConfig {
            iterations: 0,
            ..FpaConfig::tiny()
        };
        let seeds = [genome];
        let request = SearchRequest {
            seeds: &seeds,
            ..SearchRequest::new("compress", gen0, cfg.seed)
        };
        let front = pareto_search(minipool::global(), &cache, &request);
        assert!(
            front.variants.iter().any(|v| {
                v.metrics.wcet_cycles <= tuned_metrics.wcet_cycles
                    && v.metrics.wcec_pj <= tuned_metrics.wcec_pj
                    && v.metrics.code_halfwords <= tuned_metrics.code_halfwords
            }),
            "generation-0 front {:?} misses the tuned point {tuned_metrics:?}",
            front.variants.iter().map(|v| v.metrics).collect::<Vec<_>>()
        );
    }

    #[test]
    fn default_pipeline_resolves_through_the_catalog() {
        // A catalogue name and a literal pipeline string both work; an
        // unresolvable spec is a compile-stage error.
        let mut cfg = WorkflowConfig::pg32();
        cfg.fpa = FpaConfig::tiny();
        cfg.leakage_traces = 24;
        cfg.default_pipeline = "camera_pill".to_string();
        PredictableWorkflow::new(cfg.clone())
            .run(teamplay_apps::camera_pill::SOURCE)
            .expect("app-named default pipeline works");
        cfg.default_pipeline = "const_fold,dce".to_string();
        PredictableWorkflow::new(cfg.clone())
            .run(teamplay_apps::camera_pill::SOURCE)
            .expect("literal default pipeline works");
        cfg.default_pipeline = "not_a_pass_or_name".to_string();
        match PredictableWorkflow::new(cfg).run(teamplay_apps::camera_pill::SOURCE) {
            Err(WorkflowError::Compile(msg)) => {
                assert!(msg.contains("default pipeline"), "{msg}")
            }
            other => panic!("expected compile error, got {other:?}"),
        }
    }

    #[test]
    fn measure_step_reports_observed_within_ipet_per_variant() {
        let mut cfg = WorkflowConfig::pg32();
        cfg.fpa = FpaConfig::tiny();
        cfg.leakage_traces = 24;
        cfg.measure = Some(MeasureConfig::standard());
        let outcome = PredictableWorkflow::new(cfg)
            .run(teamplay_apps::camera_pill::SOURCE)
            .expect("workflow succeeds");
        // All four pill tasks take scalar (or no) parameters, so every
        // task's whole front is measured.
        assert_eq!(outcome.measurements.len(), outcome.tasks.len());
        for (tm, report) in outcome.measurements.iter().zip(&outcome.tasks) {
            assert_eq!(tm.task, report.name);
            assert_eq!(tm.variants.len(), report.variants_offered);
            for vm in &tm.variants {
                assert!(
                    vm.observed_max_cycles <= vm.ipet_cycles,
                    "task `{}` variant {}: observed {} over IPET {}",
                    tm.task,
                    vm.variant,
                    vm.observed_max_cycles,
                    vm.ipet_cycles
                );
                assert!(vm.observed_over_ipet > 0.0 && vm.observed_over_ipet <= 1.0);
                assert!(vm.observed_max_energy_pj > 0.0);
                assert_eq!(vm.runs, MeasureConfig::standard().runs);
            }
        }
        // Off by default: the same workflow without the flag reports
        // nothing (and remains deterministic either way).
        let mut off = WorkflowConfig::pg32();
        off.fpa = FpaConfig::tiny();
        off.leakage_traces = 24;
        let silent = PredictableWorkflow::new(off)
            .run(teamplay_apps::camera_pill::SOURCE)
            .expect("workflow succeeds");
        assert!(silent.measurements.is_empty());
        assert_eq!(outcome.certificate, silent.certificate);
    }

    #[test]
    fn an_empty_measure_range_is_a_compile_error() {
        let mut cfg = WorkflowConfig::pg32();
        cfg.measure = Some(MeasureConfig {
            input_lo: 5,
            input_hi: 5,
            ..MeasureConfig::standard()
        });
        match PredictableWorkflow::new(cfg).run(teamplay_apps::camera_pill::SOURCE) {
            Err(WorkflowError::Compile(msg)) => {
                assert_eq!(msg, "measure: empty input range 5..5")
            }
            other => panic!("expected compile error, got {other:?}"),
        }
    }

    #[test]
    fn missing_task_annotations_are_rejected() {
        let err = pill_workflow().run("int f() { return 0; }").unwrap_err();
        assert!(matches!(err, WorkflowError::NoTasks));
    }

    #[test]
    fn impossible_budget_fails_the_contract_with_feedback() {
        let src = r#"
            /*@ task busy period(10ms) deadline(10ms) wcet_budget(1us) energy_budget(1pJ) @*/
            void busy() {
                int s = 0;
                for (int i = 0; i < 1000; i = i + 1) { s = s + i; }
                __out(1, s);
                return;
            }
        "#;
        match pill_workflow().run(src) {
            Err(WorkflowError::Contract(e)) => {
                assert!(!e.violations.is_empty());
                let text = e.to_string();
                assert!(text.contains("busy"), "{text}");
            }
            other => panic!("expected contract failure, got {other:?}"),
        }
    }

    #[test]
    fn unschedulable_deadline_is_detected() {
        let src = r#"
            /*@ task heavy period(1ms) deadline(5us) @*/
            void heavy() {
                int s = 0;
                for (int i = 0; i < 5000; i = i + 1) { s = s + i * i; }
                __out(1, s);
                return;
            }
        "#;
        match pill_workflow().run(src) {
            Err(WorkflowError::Unschedulable(_)) => {}
            other => panic!("expected unschedulable, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_loops_are_reported_as_compile_failure() {
        let src = r#"
            /*@ task spin deadline(10ms) @*/
            void spin(int n) {
                int s = 0;
                while (n > 0) { n = n - 1; s = s + 1; }
                __out(1, s);
                return;
            }
        "#;
        match pill_workflow().run(src) {
            Err(WorkflowError::Compile(msg)) => assert!(msg.contains("spin"), "{msg}"),
            other => panic!("expected compile failure, got {other:?}"),
        }
    }

    #[test]
    fn secure_task_with_unconvertible_branching_is_rejected() {
        let src = r#"
            /*@ task leaky security(ct) secret(k) deadline(10ms) @*/
            void leaky(int k) {
                int s = 0;
                /*@ loop bound(64) @*/
                while (k > 0) { k = k - 1; s = s + 1; }
                __out(1, s);
                return;
            }
        "#;
        match pill_workflow().run(src) {
            Err(WorkflowError::ResidualLeakRisk { task, report }) => {
                assert_eq!(task, "leaky");
                assert!(report.residual >= 1);
            }
            other => panic!("expected residual risk, got {other:?}"),
        }
    }

    #[test]
    fn workflow_is_deterministic() {
        let src = teamplay_apps::camera_pill::SOURCE;
        let a = pill_workflow().run(src).expect("run a");
        let b = pill_workflow().run(src).expect("run b");
        assert_eq!(a.certificate, b.certificate);
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn infeasible_reliability_degrades_to_rung_one() {
        // k = 100000 re-executions cannot fit any 10 ms deadline, but the
        // task itself schedules comfortably once the reservations are
        // dropped: the ladder lands on rung 1 and records it everywhere.
        let src = r#"
            /*@ task heavy period(20ms) deadline(10ms) reliability(100000) @*/
            void heavy() {
                int s = 0;
                for (int i = 0; i < 5000; i = i + 1) { s = s + i * i; }
                __out(1, s);
                return;
            }
        "#;
        let outcome = pill_workflow().run(src).expect("rung 1 schedules");
        assert_eq!(outcome.degradation, DegradationRung::NoReexecution);
        for ev in outcome.evidence.values() {
            assert_eq!(ev.degradation_rung, 1);
        }
        // The reservations really were dropped, and the relaxed schedule
        // still proves the contract.
        let entry = outcome.schedule.entry("heavy").expect("scheduled");
        assert_eq!(entry.recovery_us.to_bits(), 0.0f64.to_bits());
        verify_certificate(&outcome.certificate, &outcome.evidence).expect("certificate checks");
    }

    #[test]
    fn degraded_deadline_rescues_an_unschedulable_task() {
        // The nominal 5 µs deadline is impossible (same workload as
        // `unschedulable_deadline_is_detected`), but the declared
        // degraded-mode deadline of 10 ms is generous: the ladder skips
        // rung 1 (no re-executions declared) and settles on rung 2.
        let src = r#"
            /*@ task heavy period(20ms) deadline(5us) degraded_deadline(10ms) @*/
            void heavy() {
                int s = 0;
                for (int i = 0; i < 5000; i = i + 1) { s = s + i * i; }
                __out(1, s);
                return;
            }
        "#;
        let outcome = pill_workflow().run(src).expect("rung 2 schedules");
        assert_eq!(outcome.degradation, DegradationRung::DegradedDeadline);
        for ev in outcome.evidence.values() {
            assert_eq!(ev.degradation_rung, 2);
        }
        // The certificate was proven against the substituted deadline and
        // re-verifies against the emitted evidence.
        verify_certificate(&outcome.certificate, &outcome.evidence).expect("certificate checks");
        // The schedule misses 5 µs but meets the degraded 10 ms deadline.
        let entry = outcome.schedule.entry("heavy").expect("scheduled");
        assert!(entry.reserved_until_us() > 5.0);
        assert!(entry.reserved_until_us() <= 10_000.0);
    }

    #[test]
    fn ladder_exhaustion_still_reports_unschedulable() {
        // Even the degraded-mode deadline is impossible: the ladder walks
        // every rung and surfaces the final scheduling error.
        let src = r#"
            /*@ task heavy period(20ms) deadline(5us) reliability(1) degraded_deadline(6us) @*/
            void heavy() {
                int s = 0;
                for (int i = 0; i < 5000; i = i + 1) { s = s + i * i; }
                __out(1, s);
                return;
            }
        "#;
        match pill_workflow().run(src) {
            Err(WorkflowError::Unschedulable(_)) => {}
            other => panic!("expected unschedulable, got {other:?}"),
        }
    }
}
