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
//! * **Stateful passes are not replayed** — `inline`'s per-function
//!   budget runs out in one fixpoint round and stays spent in the next;
//!   memoised compiles still match the unmemoised ones.
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
use std::collections::HashMap;
use std::sync::Mutex;
use teamplay_compiler::driver::code_size_halfwords;
use teamplay_compiler::{
    compile_module, evaluate_module, CompilerConfig, EvalCache, FpaConfig, ModuleMetrics,
    MultiObjectiveFpa, PassManager, PassStats, Pipeline, VariantMetrics,
};
use teamplay_energy::{analyze_program_energy, IsaEnergyModel};
use teamplay_isa::CycleModel;
use teamplay_minic::compile_to_ir;
use teamplay_minic::ir::{IrModule, IrOp};
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

#[test]
fn inline_budget_exhausted_across_rounds_is_not_replayed() {
    // `f` makes more inlinable calls than one function's inline budget
    // allows: the first round spends the budget, and the next round's
    // `inline` finds it spent with calls left. `inline,dce` records that
    // second-round `inline` as "no change"; `inline,dce,inline` then
    // reaches the same state in its first round with a second `inline`
    // whose budget is fresh, so replaying the recorded transition would
    // leave six calls that the unmemoised compile inlines.
    let calls = "s = inc(s); ".repeat(30);
    let src = format!(
        "int inc(int v) {{ return v + 1; }}
         int f(int x) {{ int s = x; {calls}return s; }}"
    );
    let ir = compile_to_ir(&src).expect("front-end");
    let (cm, em) = (CycleModel::pg32(), IsaEnergyModel::pg32_datasheet());
    let cache = EvalCache::new(&ir, &cm, &em);
    let pipelines = [
        ("inline,const_fold,copy_prop,dce", 6),
        ("const_fold,inline(60),dce", 6),
        ("inline,dce", 6),
        ("inline,dce,inline", 0),
        ("inline,block_layout", 6),
    ];
    for (pipeline, expected_calls) in pipelines {
        let config = CompilerConfig {
            pipeline: pipeline.parse::<Pipeline>().expect("pipeline resolves"),
            ..CompilerConfig::balanced()
        };
        // The budget really runs out: the first `inline` changes `f`
        // once, in round one, and runs again in round two.
        let mut module = ir.clone();
        let mut pm = PassManager::new(config.pipeline.clone()).expect("pipeline resolves");
        pm.run(&mut module);
        let inline = pm
            .stats()
            .iter()
            .find(|s| s.name == "inline")
            .expect("inline runs");
        assert_eq!(inline.changes, 1, "{pipeline}: {inline:?}");
        assert!(inline.invocations >= 2, "{pipeline}: {inline:?}");
        let calls_left = module
            .function("f")
            .expect("f")
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|op| matches!(op, IrOp::Call { .. }))
            .count();
        assert_eq!(
            calls_left, expected_calls,
            "{pipeline}: 30 calls, budget of 24"
        );
        // Cold and warm memoised compiles both match.
        for pass in ["cold", "warm"] {
            if let Some(divergence) = compile_divergence(&ir, &cache, &config) {
                panic!("{pass}: {divergence}");
            }
        }
    }
    let stats = cache.compile_memo_stats();
    assert!(stats.pass_replays > 0, "{stats:?}");
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
}
