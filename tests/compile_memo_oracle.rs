//! Compile-memo oracle suite: the per-function memo inside every
//! [`EvalCache`] (interned IR states, a `(state, pass)` transition memo
//! and a codegen memo) never changes what a compile produces.
//!
//! The contracts pinned here:
//!
//! * **Memoised ≡ unmemoised** — one cache is warmed with a seeded
//!   `FpaConfig::tiny()` search. For every configuration the search
//!   evaluated, the cached `(Program, ModuleMetrics)` is byte-identical
//!   to [`evaluate_module`] (the plain [`compile_module`] plus both
//!   analyses, no memo), and the memoised compile's `PassStats` equal an
//!   unmemoised [`PassManager::run`]'s. This holds on the four app
//!   kernels and on generated kernels, at pool widths 1/2/4.
//! * **Counters add up** — `pass_runs + pass_replays` is the summed
//!   `PassStats` invocations of the configurations the cache compiled,
//!   and `analysis_hits + analysis_misses` the number of functions it
//!   analysed, at any pool width.
//! * **Every pass replays, `inline` included** — one `inline` run
//!   spends its whole budget and the next fixpoint round's run, with a
//!   fresh budget, finishes the job; memoised compiles, cold and warm and
//!   run concurrently at pool widths 1/2/4, match the unmemoised ones,
//!   and a warm compile replays every `inline` invocation.
//! * **Codegen reads only its effective options** — after several
//!   pipelines, every function of the app kernels and of generated
//!   kernels compiles under each of the six [`CodegenOpts`] exactly as
//!   under the options [`CodegenOpts::effective_for`] narrows them to,
//!   which the codegen memo keys on.
//! * **The counters count distinct work** — a width-1 search and final
//!   build over each app kernel make one codegen miss per distinct
//!   `(IR state, effective options)`, intern one code entry per distinct
//!   compiled function, run one analysis per distinct `(function, callee
//!   bounds)` and assemble one program per front variant plus the final
//!   build. At widths 2 and 4 the fronts are byte-identical, code and
//!   program counts are the same, and codegen and analysis misses are
//!   no fewer (two threads may miss on one key at once). The same holds
//!   with a fresh store attached: writing an evaluation back assembles
//!   no program.
//! * **The final build is the compile the search measured** —
//!   [`EvalCache::final_build`] under per-function configurations, on a
//!   warm cache (after a search at pool widths 1/2/4) and on a cold one,
//!   builds every function byte-identically to [`compile_module`] under
//!   its configuration, and its metrics equal a fresh
//!   [`analyze_program`] / [`analyze_program_energy`] of that program.
//!   It moves none of the cache's hit and miss counters.

#[path = "common/kernels.rs"]
mod kernels;

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;
use teamplay_compiler::driver::code_size_halfwords;
use teamplay_compiler::{
    compile_module, evaluate_module, generate_function, pareto_search, CodegenOpts, CompilerConfig,
    DiskStore, EvalCache, FpaConfig, ModuleMetrics, MultiObjectiveFpa, PassManager, PassStats,
    Pipeline, SearchRequest, VariantMetrics,
};
use teamplay_energy::{analyze_program_energy, IsaEnergyModel};
use teamplay_isa::{CycleModel, DataLayout, Function, Program};
use teamplay_minic::compile_to_ir;
use teamplay_minic::ir::{IrFunction, IrModule, IrOp};
use teamplay_wcet::analyze_program;

fn app_kernels() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        (
            "camera_pill",
            teamplay_apps::camera_pill::SOURCE,
            "compress",
        ),
        ("spacewire", teamplay_apps::spacewire::SOURCE, "crc_frame"),
        ("uav", teamplay_apps::uav::DETECT_KERNEL_SOURCE, "predetect"),
        (
            "parking",
            teamplay_apps::parking::CONV_KERNEL_SOURCE,
            "conv_layer",
        ),
    ]
}

/// Warm `cache` with a seeded tiny search for `task` on a `width`-thread
/// pool, evaluating every genome through the cache as `pareto_search`
/// does. Returns the distinct configurations the search evaluated.
fn warm(cache: &EvalCache<'_>, task: &str, width: usize) -> Vec<CompilerConfig> {
    let seen: Mutex<Vec<CompilerConfig>> = Mutex::new(Vec::new());
    MultiObjectiveFpa::new(FpaConfig::tiny()).run_on_seeded(
        &minipool::Pool::new(width),
        CompilerConfig::GENOME_DIMS,
        0x5EED,
        &[],
        |genome| {
            let config = CompilerConfig::from_genome(genome);
            {
                let mut seen = seen.lock().expect("config log");
                if !seen.contains(&config) {
                    seen.push(config.clone());
                }
            }
            let (_, metrics) = cache.evaluate(&config)?;
            let m = metrics.of(task)?;
            Some(vec![
                m.wcet_cycles as f64,
                m.wcec_pj,
                m.code_halfwords as f64,
            ])
        },
    );
    seen.into_inner().expect("config log")
}

/// The unmemoised pass statistics of `config` on `ir`.
fn plain_stats(ir: &IrModule, config: &CompilerConfig) -> Vec<PassStats> {
    let mut pm = PassManager::new(config.pipeline.clone()).expect("pipeline resolves");
    pm.run(&mut ir.clone());
    pm.stats().to_vec()
}

/// The first way a memoised compile of `config` through `cache` differs
/// from the unmemoised one, if any: the compiled program (or error),
/// and the pass statistics.
fn compile_divergence(
    ir: &IrModule,
    cache: &EvalCache<'_>,
    config: &CompilerConfig,
) -> Option<String> {
    let memoised = cache.compile(config);
    let plain = compile_module(ir, config);
    let bytes = |p: &teamplay_isa::Program| serde_json::to_string(p).expect("program serializes");
    match (&memoised, &plain) {
        (Ok((a, _)), Ok(b)) if bytes(a) == bytes(b) => {}
        (Err(a), Err(b)) if a == b => {}
        _ => return Some(format!("`{}`: program differs", config.pipeline)),
    }
    if let Ok((_, stats)) = memoised {
        if stats != plain_stats(ir, config) {
            return Some(format!("`{}`: pass stats differ", config.pipeline));
        }
    }
    None
}

/// The memoised ≡ unmemoised oracle over one module: warm a fresh cache
/// at each pool width and check every evaluated configuration. Returns
/// the first divergence, if any.
fn memo_divergence(ir: &IrModule, task: &str) -> Option<String> {
    let (cm, em) = (CycleModel::pg32(), IsaEnergyModel::pg32_datasheet());
    for width in [1usize, 2, 4] {
        let cache = EvalCache::new(ir, &cm, &em);
        let configs = warm(&cache, task, width);
        for config in &configs {
            let cached = cache
                .evaluate(config)
                .map(|(program, metrics)| serde_json::to_string(&(&*program, &metrics)));
            let plain = evaluate_module(ir, config, &cm, &em)
                .ok()
                .map(|(program, metrics)| serde_json::to_string(&(&program, &metrics)));
            if cached.map(|r| r.expect("serializes")) != plain.map(|r| r.expect("serializes")) {
                return Some(format!(
                    "width {width}: `{}` evaluates differently",
                    config.pipeline
                ));
            }
            if let Some(divergence) = compile_divergence(ir, &cache, config) {
                return Some(format!("width {width}: {divergence}"));
            }
        }
    }
    None
}

#[test]
fn memoised_evaluations_match_unmemoised_on_the_app_kernels() {
    for (app, src, task) in app_kernels() {
        let ir = compile_to_ir(src).expect("front-end");
        if let Some(divergence) = memo_divergence(&ir, task) {
            panic!("{app}: {divergence}");
        }
    }
}

#[test]
fn pass_runs_and_replays_sum_to_the_pass_invocations() {
    let (cm, em) = (CycleModel::pg32(), IsaEnergyModel::pg32_datasheet());
    let ir = compile_to_ir(teamplay_apps::camera_pill::SOURCE).expect("front-end");
    for width in [1usize, 2, 4] {
        let cache = EvalCache::new(&ir, &cm, &em);
        assert_eq!(
            cache.compile_memo_stats(),
            Default::default(),
            "an unused cache has not compiled"
        );
        let configs = warm(&cache, "compress", width);
        // Each distinct configuration compiles exactly once per cache,
        // whatever the width, and no store is attached.
        assert_eq!(cache.misses(), configs.len());
        let invocations: usize = configs
            .iter()
            .flat_map(|config| plain_stats(&ir, config))
            .map(|s| s.invocations)
            .sum();
        let stats = cache.compile_memo_stats();
        assert_eq!(
            stats.pass_runs + stats.pass_replays,
            invocations,
            "width {width}: {stats:?}"
        );
        assert_eq!(
            stats.codegen_hits + stats.codegen_misses,
            configs.len() * ir.functions.len(),
            "width {width}: one codegen call per function per compile"
        );
        // Every configuration is feasible, so each of its functions was
        // one analysis lookup: a replay or a fresh analysis.
        assert!(configs.iter().all(|c| cache.evaluate(c).is_some()));
        assert_eq!(
            stats.analysis_hits + stats.analysis_misses,
            configs.len() * ir.functions.len(),
            "width {width}: one analysis lookup per function per evaluation"
        );
        assert!(
            stats.pass_replays > 0 && stats.codegen_hits > 0 && stats.analysis_hits > 0,
            "{stats:?}"
        );
        assert!(stats.states >= ir.functions.len(), "{stats:?}");
    }
}

/// The six codegen option sets a configuration can select.
fn all_codegen_opts() -> Vec<CodegenOpts> {
    [0, 2, 4]
        .into_iter()
        .flat_map(|pinned_regs| {
            [false, true].map(|mul_shift_add| CodegenOpts {
                pinned_regs,
                mul_shift_add,
            })
        })
        .collect()
}

/// The codegen data layout of `ir`'s globals.
fn layout_of(ir: &IrModule) -> DataLayout {
    let mut globals = Program::new();
    globals.globals.extend(ir.globals.iter().cloned());
    DataLayout::of_program(&globals)
}

/// Every function of `ir` after several pipelines, checked under each
/// of the six [`CodegenOpts`] against its effective options. Returns the
/// first function whose code differs, and how many `(function, opts)`
/// pairs had narrower effective options.
fn effective_opts_divergence(ir: &IrModule) -> (Option<String>, usize) {
    let layout = layout_of(ir);
    let pipelines = [
        Pipeline::o0(),
        Pipeline::o1(),
        Pipeline::o2(),
        Pipeline::o3(),
        CompilerConfig::energy_saver().pipeline,
        "inline(60),unroll(8),licm,gvn,mul_shift_add,strength_reduce,copy_prop,dce"
            .parse()
            .expect("pipeline resolves"),
    ];
    let mut narrowed = 0;
    for pipeline in pipelines {
        let mut module = ir.clone();
        PassManager::new(pipeline.clone())
            .expect("pipeline resolves")
            .run(&mut module);
        for f in &module.functions {
            for opts in all_codegen_opts() {
                let effective = opts.effective_for(f);
                narrowed += usize::from(effective != opts);
                let code = |opts| generate_function(f, &layout, opts);
                if code(opts) != code(effective) {
                    let divergence = format!(
                        "`{}` after `{pipeline}`: {opts:?} and {effective:?} differ",
                        f.name
                    );
                    return (Some(divergence), narrowed);
                }
            }
        }
    }
    (None, narrowed)
}

#[test]
fn codegen_under_the_effective_options_is_exact_on_the_app_kernels() {
    let mut narrowed = 0;
    for (app, src, _) in app_kernels() {
        let ir = compile_to_ir(src).expect("front-end");
        let (divergence, n) = effective_opts_divergence(&ir);
        if let Some(divergence) = divergence {
            panic!("{app}: {divergence}");
        }
        narrowed += n;
    }
    assert!(narrowed > 0, "some options must be narrowed");
}

/// What a cache's compile-memo counters must show after `configs` were
/// compiled and analysed whole and `final_build` built once, at pool
/// width 1: distinct `(IR state, effective options)` codegen keys,
/// distinct compiled functions, and distinct `(function, callee bounds)`
/// analyses. Every configuration must be feasible.
fn distinct_work(
    ir: &IrModule,
    configs: &[CompilerConfig],
    final_build: (&Program, &ModuleMetrics, &HashMap<String, CompilerConfig>),
    default: &CompilerConfig,
) -> (usize, usize, usize) {
    let (cm, em) = cache_models();
    let layout = layout_of(ir);
    let mut keys: HashSet<(IrFunction, CodegenOpts)> = HashSet::new();
    let mut codes: HashSet<Function> = HashSet::new();
    let mut analyses: HashSet<(Function, Vec<(u64, u64)>)> = HashSet::new();
    let mut analysed = |program: &Program, metrics: &ModuleMetrics| {
        for f in program.functions.values() {
            let bounds = f
                .callees()
                .iter()
                .map(|callee| {
                    let m = metrics.of(callee).expect("callee analysed");
                    (m.wcet_cycles, m.wcec_pj.to_bits())
                })
                .collect();
            analyses.insert((f.clone(), bounds));
        }
    };
    let (built, built_metrics, chosen) = final_build;
    analysed(built, built_metrics);
    let mut optimised = |config: &CompilerConfig, names: Option<&HashSet<&str>>| {
        let mut module = ir.clone();
        PassManager::new(config.pipeline.clone())
            .expect("pipeline resolves")
            .run(&mut module);
        let opts = CodegenOpts {
            pinned_regs: config.pinned_regs,
            mul_shift_add: config.mul_shift_add,
        };
        for f in &module.functions {
            if names.is_some_and(|names| !names.contains(f.name.as_str())) {
                continue;
            }
            let effective = opts.effective_for(f);
            codes.insert(generate_function(f, &layout, effective).expect("codegen"));
            keys.insert((f.clone(), effective));
        }
    };
    for config in configs {
        optimised(config, None);
        let (program, metrics) = evaluate_module(ir, config, &cm, &em).expect("feasible");
        analysed(&program, &metrics);
    }
    // The final build compiles each function under its own configuration.
    for f in &ir.functions {
        let config = chosen.get(&f.name).unwrap_or(default);
        optimised(config, Some(&HashSet::from([f.name.as_str()])));
    }
    (keys.len(), codes.len(), analyses.len())
}

#[test]
fn memo_counters_count_distinct_codegen_code_analyses_and_programs() {
    let (cm, em) = cache_models();
    let default = CompilerConfig::balanced();
    for (app, src, task) in app_kernels() {
        let ir = compile_to_ir(src).expect("front-end");
        // The configurations a seeded tiny search evaluates.
        let configs = warm(&EvalCache::new(&ir, &cm, &em), task, 1);
        let mut reference = None;
        for (width, stored) in [1usize, 2, 4]
            .into_iter()
            .flat_map(|w| [(w, false), (w, true)])
        {
            // A fresh store: every configuration compiles and is written
            // back from its code entries, so the counts are the same.
            let dir = std::env::temp_dir().join(format!(
                "teamplay-memo-counters-{}-{app}-{width}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let store = stored.then(|| DiskStore::open(&dir).expect("store opens"));
            let cache = match &store {
                Some(store) => EvalCache::with_store(&ir, &cm, &em, store),
                None => EvalCache::new(&ir, &cm, &em),
            };
            let request = SearchRequest::new(task, FpaConfig::tiny(), 0x5EED);
            let front = pareto_search(&minipool::Pool::new(width), &cache, &request);
            let _ = std::fs::remove_dir_all(&dir);
            let app = format!("{app} (store: {stored})");
            assert_eq!(cache.misses(), configs.len(), "{app}: the same search");
            let written = if stored { configs.len() } else { 0 };
            assert_eq!(cache.disk_misses(), written, "{app}, width {width}");
            let chosen = HashMap::from([(task.to_string(), front.variants[0].config.clone())]);
            let (program, metrics) = cache.final_build(&chosen, &default).expect("builds");
            let stats = cache.compile_memo_stats();
            let bytes =
                serde_json::to_string(&(&front.variants, &program, &metrics)).expect("serializes");
            let (keys, codes, analyses) = match &reference {
                Some((reference_bytes, counts)) => {
                    assert!(
                        bytes == *reference_bytes,
                        "{app}: width {width} front differs"
                    );
                    *counts
                }
                None => {
                    let counts =
                        distinct_work(&ir, &configs, (&program, &metrics, &chosen), &default);
                    reference = Some((bytes, counts));
                    counts
                }
            };
            assert_eq!(stats.codes, codes, "{app}, width {width}: {stats:?}");
            assert_eq!(
                stats.programs_built,
                front.variants.len() + 1,
                "{app}, width {width}: front variants and the final build"
            );
            if width == 1 {
                assert_eq!(stats.codegen_misses, keys, "{app}: {stats:?}");
                assert_eq!(stats.analysis_misses, analyses, "{app}: {stats:?}");
            } else {
                assert!(
                    stats.codegen_misses >= keys,
                    "{app}, width {width}: {stats:?}"
                );
                assert!(
                    stats.analysis_misses >= analyses,
                    "{app}, width {width}: {stats:?}"
                );
            }
            assert!(keys >= codes, "{app}: {stats:?}");
        }
    }
}

/// A module whose `f` makes 30 inlinable calls, more than one `inline`
/// run may expand (24).
fn thirty_calls() -> IrModule {
    let calls = "s = inc(s); ".repeat(30);
    let src = format!(
        "int inc(int v) {{ return v + 1; }}
         int f(int x) {{ int s = x; {calls}return s; }}"
    );
    compile_to_ir(&src).expect("front-end")
}

fn config_of(pipeline: &str) -> CompilerConfig {
    CompilerConfig {
        pipeline: pipeline.parse::<Pipeline>().expect("pipeline resolves"),
        ..CompilerConfig::balanced()
    }
}

#[test]
fn inline_runs_with_a_fresh_budget_each_round_and_replays() {
    // The first `inline` run spends its budget with six calls left; the
    // next run, in the next round or the next slot, has a fresh budget
    // and inlines them. Both runs are pure, so the memo records and
    // replays them like any other pass.
    let ir = thirty_calls();
    let (cm, em) = (CycleModel::pg32(), IsaEnergyModel::pg32_datasheet());
    let configs: Vec<CompilerConfig> = [
        "inline,const_fold,copy_prop,dce",
        "const_fold,inline(60),dce",
        "inline,dce",
        "inline,dce,inline",
        "inline,block_layout",
        "inline",
    ]
    .into_iter()
    .map(config_of)
    .collect();
    for config in &configs {
        let pipeline = &config.pipeline;
        let mut module = ir.clone();
        let mut pm = PassManager::new(pipeline.clone()).expect("pipeline resolves");
        pm.run(&mut module);
        let inline_changes: usize = pm
            .stats()
            .iter()
            .filter(|s| s.name == "inline")
            .map(|s| s.changes)
            .sum();
        assert_eq!(inline_changes, 2, "{pipeline}: 24 expansions, then 6");
        let calls_left = module
            .function("f")
            .expect("f")
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|op| matches!(op, IrOp::Call { .. }))
            .count();
        assert_eq!(calls_left, 0, "{pipeline}: every call inlined");
    }
    // Cold and warm memoised compiles both match, with every pipeline
    // compiling concurrently through one memo.
    for width in [1usize, 2, 4] {
        let pool = minipool::Pool::new(width);
        let cache = EvalCache::new(&ir, &cm, &em);
        for pass in ["cold", "warm"] {
            let divergences = pool.par_map(&configs, |_, config| {
                compile_divergence(&ir, &cache, config)
            });
            if let Some(divergence) = divergences.into_iter().flatten().next() {
                panic!("width {width}, {pass}: {divergence}");
            }
        }
        let stats = cache.compile_memo_stats();
        assert!(stats.pass_replays > 0, "width {width}: {stats:?}");
    }
}

#[test]
fn a_warm_inline_only_compile_replays_every_invocation() {
    let ir = thirty_calls();
    let (cm, em) = (CycleModel::pg32(), IsaEnergyModel::pg32_datasheet());
    let cache = EvalCache::new(&ir, &cm, &em);
    let config = config_of("inline");
    let (cold_program, cold) = cache.compile(&config).expect("compiles");
    let invocations: usize = cold.iter().map(|s| s.invocations).sum();
    // `inc` calls nothing (one round); `f` changes in two rounds and
    // settles in a third.
    assert_eq!(invocations, 4, "{cold:?}");
    let before = cache.compile_memo_stats();
    assert_eq!((before.pass_runs, before.pass_replays), (invocations, 0));
    let (warm_program, warm) = cache.compile(&config).expect("compiles");
    assert_eq!(warm, cold);
    assert_eq!(
        serde_json::to_string(&warm_program).expect("serializes"),
        serde_json::to_string(&cold_program).expect("serializes")
    );
    let after = cache.compile_memo_stats();
    assert_eq!(after.pass_runs, before.pass_runs, "{after:?}");
    assert_eq!(after.pass_replays, invocations, "{after:?}");
}

/// A call chain four deep: inlining decisions differ by caller, so
/// per-function configurations really build different callees.
const CALL_CHAIN: &str = "int d(int x) { return x * 3 + 1; }
     int c(int x) { return d(x) + d(x + 1) * 2; }
     int b(int x) { int s = c(x); if (x > 4) { s = s + c(x - 1); } return s; }
     int a(int x) {
         int s = 0;
         for (int i = 0; i < 6; i = i + 1) { s = s + b(x + i) - i * 4; }
         return s;
     }";

/// Per-function configurations cycling through an aggressive
/// configuration, a minimal one, one that inlines only after value
/// numbering, and three of `searched` (configurations a search
/// evaluated, whose compiles a warm memo replays). Function `i` gets entry
/// `(i + rotation) % len`.
fn rotating_configs(
    ir: &IrModule,
    searched: &[CompilerConfig],
    rotation: usize,
) -> HashMap<String, CompilerConfig> {
    let fixed = [
        CompilerConfig {
            pipeline: Pipeline::o3(),
            mul_shift_add: true,
            pinned_regs: 4,
        },
        CompilerConfig {
            pipeline: Pipeline::o1(),
            mul_shift_add: false,
            pinned_regs: 0,
        },
        CompilerConfig {
            pipeline: "gvn,cse,inline(60),block_layout,const_fold,copy_prop,dce"
                .parse()
                .expect("pipeline resolves"),
            mul_shift_add: false,
            pinned_regs: 2,
        },
    ];
    // The search logs configurations in evaluation order, which varies
    // with pool width; sort them so the choice does not.
    let mut searched: Vec<&CompilerConfig> = searched.iter().collect();
    searched.sort_by_key(|c| (c.pipeline.to_string(), c.mul_shift_add, c.pinned_regs));
    let cycle: Vec<&CompilerConfig> = fixed.iter().chain(searched.into_iter().take(3)).collect();
    ir.functions
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let config = cycle[(i + rotation) % cycle.len()];
            (f.name.clone(), config.clone())
        })
        .collect()
}

/// The first way `cache.final_build(chosen, default)` differs from the
/// unmemoised compiles and analyses, if any: a function not
/// byte-identical to the same function of [`compile_module`] under its
/// configuration, metrics other than a fresh analysis of the built
/// program, or a moved cache counter.
fn final_build_divergence(
    ir: &IrModule,
    cache: &EvalCache<'_>,
    chosen: &HashMap<String, CompilerConfig>,
    default: &CompilerConfig,
) -> Option<String> {
    let counters = |c: &EvalCache<'_>| (c.hits(), c.misses(), c.disk_hits(), c.disk_misses());
    let before = counters(cache);
    let (program, metrics) = cache.final_build(chosen, default).expect("final build");
    if counters(cache) != before {
        return Some("the final build moved the cache counters".into());
    }
    let bytes = |p: &teamplay_isa::Program, name: &str| {
        serde_json::to_string(&p.function(name)).expect("function serializes")
    };
    for f in &ir.functions {
        let config = chosen.get(&f.name).unwrap_or(default);
        let whole = compile_module(ir, config).expect("whole-module build");
        if bytes(&program, &f.name) != bytes(&whole, &f.name) {
            return Some(format!(
                "`{}` under `{}` differs from its whole-module compile",
                f.name, config.pipeline
            ));
        }
    }
    let (cm, em) = cache_models();
    let wcet = analyze_program(&program, &cm).expect("analysable");
    let energy = analyze_program_energy(&program, &em, &cm).expect("analysable");
    let fresh = ModuleMetrics::new(
        program
            .functions
            .iter()
            .map(|(name, f)| {
                let m = VariantMetrics {
                    wcet_cycles: wcet.wcet_cycles(name).expect("analysed"),
                    wcec_pj: energy.wcec_pj(name).expect("analysed"),
                    code_halfwords: code_size_halfwords(f),
                };
                (name.clone(), m)
            })
            .collect(),
    );
    (metrics != fresh).then(|| format!("metrics {metrics:?} differ from {fresh:?}"))
}

/// The cost models every cache in this suite uses.
fn cache_models() -> (CycleModel, IsaEnergyModel) {
    (CycleModel::pg32(), IsaEnergyModel::pg32_datasheet())
}

#[test]
fn final_build_through_the_memo_matches_plain_compiles_and_analyses() {
    let (cm, em) = cache_models();
    let kernels = app_kernels()
        .into_iter()
        .chain([("call_chain", CALL_CHAIN, "a")]);
    for (app, src, task) in kernels {
        let ir = compile_to_ir(src).expect("front-end");
        let default = CompilerConfig::balanced();
        for width in [1usize, 2, 4] {
            let cache = EvalCache::new(&ir, &cm, &em);
            let searched = warm(&cache, task, width);
            for rotation in 0..3 {
                let chosen = rotating_configs(&ir, &searched, rotation);
                if let Some(divergence) = final_build_divergence(&ir, &cache, &chosen, &default) {
                    panic!("{app}, warm at width {width}, rotation {rotation}: {divergence}");
                }
            }
        }
        let cold = EvalCache::new(&ir, &cm, &em);
        let chosen = rotating_configs(&ir, &[], 1);
        if let Some(divergence) = final_build_divergence(&ir, &cold, &chosen, &default) {
            panic!("{app}, cold: {divergence}");
        }
        assert_eq!(
            cold.misses(),
            0,
            "{app}: a cold final build evaluates nothing"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, ..ProptestConfig::default()
    })]

    #[test]
    fn memoised_evaluations_match_unmemoised_on_generated_kernels(src in kernels::arb_kernel()) {
        let ir = compile_to_ir(&src).expect("generated kernels are valid Mini-C");
        prop_assert_eq!(memo_divergence(&ir, "f"), None);
    }

    #[test]
    fn codegen_under_the_effective_options_is_exact_on_generated_kernels(src in kernels::arb_kernel()) {
        let ir = compile_to_ir(&src).expect("generated kernels are valid Mini-C");
        prop_assert_eq!(effective_opts_divergence(&ir).0, None);
    }
}
