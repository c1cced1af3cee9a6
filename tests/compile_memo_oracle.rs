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
//!   at any pool width.
//! * **Stateful passes are not replayed** — `inline`'s per-function
//!   budget runs out in one fixpoint round and stays spent in the next;
//!   memoised compiles still match the unmemoised ones.

#[path = "common/kernels.rs"]
mod kernels;

use proptest::prelude::*;
use std::sync::Mutex;
use teamplay_compiler::{
    compile_module, evaluate_module, CompilerConfig, EvalCache, FpaConfig, MultiObjectiveFpa,
    PassManager, PassStats, Pipeline,
};
use teamplay_energy::IsaEnergyModel;
use teamplay_isa::CycleModel;
use teamplay_minic::compile_to_ir;
use teamplay_minic::ir::{IrModule, IrOp};

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
        assert!(
            stats.pass_replays > 0 && stats.codegen_hits > 0,
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
