//! The predictable workflow replayed step by step, each step inside a
//! span around the layer's public function.
//!
//! This follows `PredictableWorkflow::run_on` on a one-thread pool: the
//! same front end, hardening, per-task FPA searches over one shared
//! evaluation cache (with the persistent store as its bottom tier),
//! degradation ladder, final build, re-analysis, leakage assessment,
//! proof and glue. The evaluation cache is rebuilt here with its
//! evaluator split the way `evaluate_module_memo` composes it, so passes,
//! code generation and both analyses get spans of their own. The
//! benchmark checks that every replay reproduces the untraced outcome
//! byte for byte.

use crate::trace::{count, span};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};
use teamplay::predictable::{DegradationRung, PredictableOutcome, TaskReport, WorkflowConfig};
use teamplay_compiler::driver::code_size_halfwords;
use teamplay_compiler::{
    compile_module_per_function_on, generate_program, AnalysisMemo, CachedEval, CodegenOpts,
    CompilerConfig, DiskStore, ModuleMetrics, MultiObjectiveFpa, ParetoPoint, PassManager,
    SearchStats, TaskVariant, VariantMetrics, STORE_FORMAT_VERSION,
};
use teamplay_contracts::{prove, TaskEvidence};
use teamplay_coord::{
    generate_parallel_glue_with_pipelines, schedule_energy_aware, CoordTask, ExecOption, Schedule,
    TaskSet,
};
use teamplay_csl::{extract_model, CslModel, SecurityReq};
use teamplay_energy::analyze_program_energy_cached;
use teamplay_minic::{lower::lower_program, parse_and_check, IrModule};
use teamplay_security::{assess_leakage, ladderise, LeakageReport, SecretSpec};
use teamplay_wcet::analyze_program_cached;

/// FNV-1a 128-bit parameters of the store's content keys.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

/// Extend a store key with a value's compact JSON, as the store does.
fn hash_json<T: serde::Serialize>(mut hash: u128, value: &T) -> u128 {
    for b in serde_json::to_string(value).expect("serializable").bytes() {
        hash ^= u128::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The evaluation cache of one module, with the same tiers and counters
/// as the compiler's `EvalCache`.
struct Cache<'a> {
    ir: &'a IrModule,
    cfg: &'a WorkflowConfig,
    memo: AnalysisMemo,
    store: Option<(&'a DiskStore, u128)>,
    entries: Mutex<HashMap<CompilerConfig, Option<CachedEval>>>,
    stats: Mutex<SearchStats>,
}

impl<'a> Cache<'a> {
    fn new(ir: &'a IrModule, cfg: &'a WorkflowConfig, store: Option<&'a DiskStore>) -> Self {
        let store = store.map(|disk| {
            let prefix = (
                STORE_FORMAT_VERSION,
                ir,
                &cfg.cycle_model,
                &cfg.energy_model,
            );
            (disk, hash_json(FNV_OFFSET, &prefix))
        });
        Cache {
            ir,
            cfg,
            memo: AnalysisMemo::new(),
            store,
            entries: Mutex::new(HashMap::new()),
            stats: Mutex::new(SearchStats::default()),
        }
    }

    fn evaluate(&self, config: &CompilerConfig) -> Option<CachedEval> {
        let known = self
            .entries
            .lock()
            .expect("cache lock")
            .get(config)
            .cloned();
        count("compiler.cache_lookups", 1.0);
        let mut stats = *self.stats.lock().expect("stats lock");
        let value = match known {
            Some(value) => {
                stats.cache_hits += 1;
                count("compiler.cache_hits", 1.0);
                value
            }
            None => {
                stats.cache_misses += 1;
                let value = match self.store {
                    Some((disk, prefix)) => {
                        let key = hash_json(prefix, config);
                        let path = disk.path().join(format!("{key:032x}.json"));
                        count("store.loads", 1.0);
                        match span("DiskStore::load", || disk.load(key)) {
                            Some(found) => {
                                stats.disk_hits += 1;
                                count("store.disk_hits", 1.0);
                                count("store.bytes_read", file_len(&path));
                                found
                            }
                            None => {
                                stats.disk_misses += 1;
                                let fresh = self.compute(config);
                                span("DiskStore::store", || disk.store(key, &fresh));
                                count("store.bytes_written", file_len(&path));
                                fresh
                            }
                        }
                    }
                    None => self.compute(config),
                };
                self.entries
                    .lock()
                    .expect("cache lock")
                    .insert(config.clone(), value.clone());
                value
            }
        };
        *self.stats.lock().expect("stats lock") = stats;
        value
    }

    /// `evaluate_module_memo`, one span per stage.
    fn compute(&self, config: &CompilerConfig) -> Option<CachedEval> {
        count("compiler.configs_compiled", 1.0);
        let cm = &self.cfg.cycle_model;
        let mut module = self.ir.clone();
        let passes = span("run_passes", || {
            let mut pm = PassManager::new(config.pipeline.clone())
                .unwrap_or_else(|e| panic!("invalid configured pipeline: {e}"));
            pm.run(&mut module);
            pm.stats().to_vec()
        });
        for p in &passes {
            count("compiler.pass_invocations", p.invocations as f64);
            count("compiler.pass_changes", p.changes as f64);
        }
        let opts = CodegenOpts {
            pinned_regs: config.pinned_regs,
            mul_shift_add: config.mul_shift_add,
        };
        let program = span("generate_program", || generate_program(&module, opts)).ok()?;
        let wcet = span("analyze_program_cached", || {
            analyze_program_cached(&program, cm, &self.memo.wcet)
        })
        .ok()?;
        let energy = span("analyze_program_energy_cached", || {
            analyze_program_energy_cached(&program, &self.cfg.energy_model, cm, &self.memo.energy)
        })
        .ok()?;
        let functions = program
            .functions
            .iter()
            .map(|(name, f)| {
                let metrics = VariantMetrics {
                    wcet_cycles: wcet.wcet_cycles(name).expect("analysed"),
                    wcec_pj: energy.wcec_pj(name).expect("analysed"),
                    code_halfwords: code_size_halfwords(f),
                };
                (name.clone(), metrics)
            })
            .collect();
        Some((Arc::new(program), ModuleMetrics::new(functions)))
    }

    /// One task's Pareto front, as `pareto_search_with_cache_seeded`
    /// builds it.
    fn front(&self, task: &str, seed: u64, seeds: &[Vec<f64>]) -> (Vec<TaskVariant>, SearchStats) {
        let pool = minipool::Pool::new(1);
        let fpa = MultiObjectiveFpa::new(self.cfg.fpa);
        let dims = CompilerConfig::GENOME_DIMS;
        let outcome = span("MultiObjectiveFpa::run_on_seeded", || {
            fpa.run_on_seeded(&pool, dims, seed, seeds, |genome| {
                count("compiler.evaluations", 1.0);
                let config = CompilerConfig::from_genome(genome);
                let (_, metrics) = self.evaluate(&config)?;
                let m = metrics.of(task)?;
                Some(vec![
                    m.wcet_cycles as f64,
                    m.wcec_pj,
                    m.code_halfwords as f64,
                ])
            })
        });
        let mut variants: Vec<TaskVariant> = Vec::new();
        for ParetoPoint { genome, .. } in outcome.archive {
            let config = CompilerConfig::from_genome(&genome);
            if variants.iter().any(|v| v.config == config) {
                continue;
            }
            let Some((program, metrics)) = self.evaluate(&config) else {
                continue;
            };
            let metrics = *metrics.of(task).expect("task analysed");
            variants.push(TaskVariant {
                config,
                metrics,
                program,
                security: None,
            });
        }
        variants.sort_by_key(|v| v.metrics.wcet_cycles);
        (variants, outcome.stats)
    }
}

fn file_len(path: &std::path::Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

fn security_level(spec: &teamplay_csl::TaskSpec) -> u32 {
    u32::from(spec.security == Some(SecurityReq::ConstantTime))
}

/// The coordinator's degradation ladder: nominal contract, then without
/// re-execution slack, then degraded deadlines.
fn schedule_with_degradation(
    model: &CslModel,
    nominal: &[CoordTask],
) -> Result<(TaskSet, Schedule, DegradationRung), String> {
    let attempt = |tasks: Vec<CoordTask>| -> Result<Option<(TaskSet, Schedule)>, String> {
        let deadline_us = tasks
            .iter()
            .filter_map(|t| t.deadline_us)
            .fold(f64::INFINITY, f64::min)
            .min(1e12);
        let set =
            TaskSet::new(tasks, vec!["cpu0".into()], deadline_us).map_err(|e| e.to_string())?;
        Ok(
            span("schedule_energy_aware", || schedule_energy_aware(&set))
                .ok()
                .map(|s| (set, s)),
        )
    };
    if let Some((set, s)) = attempt(nominal.to_vec())? {
        return Ok((set, s, DegradationRung::Full));
    }
    if nominal.iter().any(|t| t.reexecutions > 0) {
        let relaxed = nominal
            .iter()
            .cloned()
            .map(|t| t.with_reexecutions(0))
            .collect();
        if let Some((set, s)) = attempt(relaxed)? {
            return Ok((set, s, DegradationRung::NoReexecution));
        }
    }
    if model.tasks.iter().any(|t| t.degraded_deadline.is_some()) {
        let degraded = nominal
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
        if let Some((set, s)) = attempt(degraded)? {
            return Ok((set, s, DegradationRung::DegradedDeadline));
        }
    }
    Err("unschedulable on every rung".into())
}

/// Coordination tasks with one option per `(time µs, energy µJ)` pair.
fn coord_tasks(
    model: &CslModel,
    options: impl Fn(usize) -> Vec<(String, f64, f64)>,
) -> Vec<CoordTask> {
    model
        .tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let level = security_level(t);
            let opts = options(i)
                .into_iter()
                .map(|(label, time_us, energy_uj)| ExecOption {
                    label,
                    core: "cpu0".into(),
                    time_us,
                    energy_uj,
                    security_level: level,
                })
                .collect();
            let mut ct = CoordTask::new(t.name.clone(), opts);
            ct.after = t.after.clone();
            ct.deadline_us = t.deadline.map(|d| d.as_us());
            ct.reexecutions = t.reexecutions;
            ct.security_floor = t.security_floor;
            ct
        })
        .collect()
}

/// Run the workflow on `source` with every step in a span, against
/// `store` when given.
pub fn workflow(
    cfg: &WorkflowConfig,
    source: &str,
    store: Option<&DiskStore>,
) -> Result<PredictableOutcome, String> {
    span("workflow", || workflow_steps(cfg, source, store))
}

fn workflow_steps(
    cfg: &WorkflowConfig,
    source: &str,
    store: Option<&DiskStore>,
) -> Result<PredictableOutcome, String> {
    let pool = minipool::Pool::new(1);
    let ast = span("parse_and_check", || parse_and_check(source)).map_err(|e| e.to_string())?;
    let model = span("extract_model", || extract_model(&ast)).map_err(|e| e.to_string())?;
    let mut ir = span("lower_program", || lower_program(&ast));

    let mut ladders = HashMap::new();
    for task in model.tasks.iter().filter(|t| security_level(t) == 1) {
        let secrets: HashSet<String> = task.secrets.iter().cloned().collect();
        let f = ir
            .function_mut(&task.function)
            .ok_or("task function missing")?;
        let report = span("ladderise", || ladderise(f, &secrets));
        if !report.fully_hardened() {
            return Err(format!("task `{}` is not fully hardened", task.name));
        }
        ladders.insert(task.name.clone(), report);
    }

    let default = CompilerConfig {
        pipeline: cfg
            .pipelines
            .resolve(&cfg.default_pipeline)
            .map_err(|e| e.to_string())?,
        ..CompilerConfig::balanced()
    };
    let seeds: Vec<Vec<f64>> = default.to_genome().into_iter().collect();
    let cache = Cache::new(&ir, cfg, store);
    let mut search = SearchStats::default();
    let mut fronts: Vec<Vec<TaskVariant>> = Vec::new();
    for (i, task) in model.tasks.iter().enumerate() {
        let (variants, stats) =
            cache.front(&task.function, cfg.seed.wrapping_add(i as u64), &seeds);
        if variants.is_empty() {
            return Err(format!("no analysable variant for task `{}`", task.name));
        }
        search.evaluations += stats.evaluations;
        search.generations += stats.generations;
        fronts.push(variants);
    }
    let counters = *cache.stats.lock().expect("stats lock");
    search.cache_hits = counters.cache_hits;
    search.cache_misses = counters.cache_misses;
    search.disk_hits = counters.disk_hits;
    search.disk_misses = counters.disk_misses;

    let nominal = coord_tasks(&model, |i| {
        fronts[i]
            .iter()
            .enumerate()
            .map(|(vi, v)| {
                (
                    format!("v{vi}"),
                    v.metrics.wcet_cycles as f64 / cfg.clock_mhz,
                    v.metrics.wcec_pj / 1e6,
                )
            })
            .collect()
    });
    let (_, provisional, _) = schedule_with_degradation(&model, &nominal)?;

    let mut chosen = HashMap::new();
    let mut chosen_by_task = HashMap::new();
    for (task, front) in model.tasks.iter().zip(&fronts) {
        let entry = provisional.entry(&task.name).ok_or("task not scheduled")?;
        let vi: usize = entry
            .option
            .trim_start_matches('v')
            .parse()
            .map_err(|_| "bad label")?;
        let config = front[vi].config.clone();
        chosen.insert(task.function.clone(), config.clone());
        chosen_by_task.insert(task.name.clone(), config);
    }
    let program = span("compile_module_per_function_on", || {
        compile_module_per_function_on(&pool, &ir, &chosen, &default)
    })
    .map_err(|e| e.to_string())?;
    let memo = &cache.memo;
    let wcet = span("analyze_program_cached", || {
        analyze_program_cached(&program, &cfg.cycle_model, &memo.wcet)
    })
    .map_err(|e| e.to_string())?;
    let energy = span("analyze_program_energy_cached", || {
        analyze_program_energy_cached(&program, &cfg.energy_model, &cfg.cycle_model, &memo.energy)
    })
    .map_err(|e| e.to_string())?;
    count("wcet.memo_hits", memo.wcet.hits() as f64);
    count(
        "wcet.memo_lookups",
        (memo.wcet.hits() + memo.wcet.misses()) as f64,
    );

    let bound = |function: &str| -> (u64, f64) {
        (
            wcet.wcet_cycles(function).expect("analysed"),
            energy.wcec_pj(function).expect("analysed"),
        )
    };
    let final_tasks = coord_tasks(&model, |i| {
        let (cycles, pj) = bound(&model.tasks[i].function);
        vec![("final".into(), cycles as f64 / cfg.clock_mhz, pj / 1e6)]
    });
    let (final_set, schedule, rung) = schedule_with_degradation(&model, &final_tasks)?;

    let mut leakage: HashMap<String, LeakageReport> = HashMap::new();
    for task in model.tasks.iter().filter(|t| security_level(t) == 1) {
        let func = ast
            .function(&task.function)
            .ok_or("task function missing")?;
        let secret = func
            .params
            .iter()
            .position(|p| task.secrets.contains(&p.name))
            .ok_or("secure task without a secret parameter")?;
        let spec = SecretSpec {
            arg_index: secret,
            class0: 0x0F0F_0F0F,
            class1: -0x6543_2110,
        };
        let report = span("assess_leakage", || {
            assess_leakage(
                &program,
                &task.function,
                func.params.len().max(1),
                spec,
                cfg.leakage_traces,
                0..4096,
                cfg.seed ^ 0x5EC0_0001,
            )
        })
        .map_err(|e| e.to_string())?;
        count("security.leak_traces", (2 * cfg.leakage_traces) as f64);
        leakage.insert(task.name.clone(), report);
    }

    let mut evidence = HashMap::new();
    for task in &model.tasks {
        let (cycles, pj) = bound(&task.function);
        let finish = schedule
            .entry(&task.name)
            .map(|e| e.finish_us + e.recovery_us);
        evidence.insert(
            task.name.clone(),
            TaskEvidence {
                wcet_us: cycles as f64 / cfg.clock_mhz,
                wcec_pj: pj,
                residual_branches: ladders.get(&task.name).map(|r| r.residual),
                leaks: leakage.get(&task.name).map(|r| r.leaks()),
                finish_us: finish,
                degradation_rung: rung.as_u8(),
            },
        );
    }
    let mut effective = model.clone();
    if rung == DegradationRung::DegradedDeadline {
        for t in &mut effective.tasks {
            if let Some(d) = t.degraded_deadline {
                t.deadline = Some(d);
            }
        }
    }
    let certificate = span("prove", || prove("teamplay-system", &effective, &evidence))
        .map_err(|e| e.to_string())?;

    let pipelines: BTreeMap<String, String> = chosen_by_task
        .iter()
        .map(|(task, config)| (task.clone(), config.pipeline.to_string()))
        .collect();
    let glue = span("generate_parallel_glue_with_pipelines", || {
        generate_parallel_glue_with_pipelines(&final_set, &schedule, &pipelines)
    })
    .map_err(|e| e.to_string())?;

    let tasks = model
        .tasks
        .iter()
        .zip(&fronts)
        .map(|(t, front)| {
            let ev = &evidence[&t.name];
            TaskReport {
                name: t.name.clone(),
                function: t.function.clone(),
                selected_config: chosen_by_task[&t.name].clone(),
                variants_offered: front.len(),
                wcet_us: ev.wcet_us,
                wcec_uj: ev.wcec_pj / 1e6,
                ladder: ladders.get(&t.name).copied(),
                leakage: leakage.get(&t.name).copied(),
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
        measurements: Vec::new(),
    })
}
