//! Compile-service oracle suite (PR 8 acceptance): the persistent
//! content-addressed store, the parallel per-function pass runners, and
//! the batched `compile_many` front-end.
//!
//! Three contracts are pinned here:
//!
//! * **Cross-process warm-start determinism** — a search rerun against a
//!   fresh cache instance over the same on-disk store answers every
//!   distinct configuration from disk (zero compiles) and returns a
//!   byte-identical serialized front. Fresh [`DiskStore`] +
//!   [`EvalCache`] instances are exactly what a new process would build,
//!   so this is the cross-process contract minus the fork.
//! * **Pool-width determinism** — the deduplicating parallel pass
//!   runners ([`PassManager::run_on`], `compile_module_per_function_on`)
//!   and [`compile_many`] produce byte-identical results at widths
//!   1/2/4, across all four app kernels and the proptest kernel
//!   generator, and byte-identical to their sequential counterparts.
//! * **Failure persistence** — infeasible configurations are stored
//!   too: a warm process is told "known bad" from disk without ever
//!   invoking codegen.
//! * **Concurrent writers** — two handles racing the same search on one
//!   directory leave a store a fresh handle warm-starts from entirely,
//!   with no temp file left and every blob hashing to its name.

use proptest::prelude::*;
use std::collections::HashMap;
use teamplay_compiler::{
    compile_many, compile_module_per_function, compile_module_per_function_on, pareto_search,
    CompileJob, CompilerConfig, DiskStore, EvalCache, FpaConfig, ParetoFront, PassManager,
    Pipeline, SearchRequest,
};
use teamplay_isa::CycleModel;
use teamplay_minic::compile_to_ir;
use teamplay_minic::ir::IrModule;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "teamplay-compile-service-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pg32_models() -> (CycleModel, teamplay_energy::IsaEnergyModel) {
    (
        CycleModel::pg32(),
        teamplay_energy::IsaEnergyModel::pg32_datasheet(),
    )
}

/// Serialize the observable outcome of a search: the variants. (Stats
/// are compared field-by-field where relevant — the disk counters
/// *differ* between cold and warm runs by design.)
fn front_bytes(front: &ParetoFront) -> String {
    serde_json::to_string(&front.variants).expect("front serializes")
}

/// A tiny-budget search for `task` over `ir` whose cache spills to
/// `store`.
fn store_search(
    pool: &minipool::Pool,
    ir: &IrModule,
    task: &str,
    store: &DiskStore,
) -> ParetoFront {
    let (cm, em) = pg32_models();
    let cache = EvalCache::with_store(ir, &cm, &em, store);
    pareto_search(
        pool,
        &cache,
        &SearchRequest::new(task, FpaConfig::tiny(), 0xBEEF),
    )
}

/// The four application kernels (same list the tightness oracle uses).
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

#[test]
fn warm_start_serves_every_config_from_disk_and_is_byte_identical() {
    let dir = temp_dir("warm-start");
    let ir = compile_to_ir(teamplay_apps::camera_pill::SOURCE).expect("front-end");
    let pool = minipool::Pool::new(2);

    let cold_store = DiskStore::open(&dir).expect("store opens");
    let cold = store_search(&pool, &ir, "compress", &cold_store);
    // A fresh store starts empty: every distinct configuration missed
    // disk and was written back.
    assert_eq!(cold.stats.disk_hits, 0, "fresh store cannot hit");
    assert_eq!(cold.stats.disk_misses, cold.stats.cache_misses);
    assert_eq!(cold_store.entries(), cold.stats.cache_misses);

    // A fresh DiskStore + EvalCache pair over the same directory is
    // what a new process would construct.
    let warm_store = DiskStore::open(&dir).expect("store reopens");
    let warm = store_search(&pool, &ir, "compress", &warm_store);
    assert_eq!(warm.stats.disk_misses, 0, "warm start must not compile");
    assert_eq!(
        warm.stats.disk_hits, warm.stats.cache_misses,
        "100% disk hits"
    );
    assert_eq!(
        front_bytes(&cold),
        front_bytes(&warm),
        "warm front must be byte-identical"
    );
    // Everything but the disk traffic replays exactly.
    assert_eq!(
        (
            warm.stats.evaluations,
            warm.stats.generations,
            warm.stats.cache_hits,
            warm.stats.cache_misses
        ),
        (
            cold.stats.evaluations,
            cold.stats.generations,
            cold.stats.cache_hits,
            cold.stats.cache_misses
        ),
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file under `dir`, recursively.
fn files_under(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)
        .expect("dir reads")
        .map(|e| e.expect("entry"))
    {
        let path = entry.path();
        if path.is_dir() {
            files.extend(files_under(&path));
        } else {
            files.push(path);
        }
    }
    files
}

/// FNV-1a-128 over `bytes`: the store's blob naming hash, restated here
/// as an independent check.
fn fnv1a128(bytes: &[u8]) -> u128 {
    bytes
        .iter()
        .fold(0x6c62272e07bb014262b821756295c58d, |hash, &b| {
            (hash ^ u128::from(b)).wrapping_mul(0x0000000001000000000000000000013B)
        })
}

#[test]
fn two_writers_racing_on_one_store_leave_it_consistent() {
    let dir = temp_dir("two-writers");
    let ir = compile_to_ir(teamplay_apps::camera_pill::SOURCE).expect("front-end");
    let search = |store: &DiskStore| store_search(&minipool::Pool::new(1), &ir, "compress", store);

    // Two handles on one directory run the same search at once: every
    // manifest and blob is raced for.
    let start = std::sync::Barrier::new(2);
    let fronts: Vec<String> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let store = DiskStore::open(&dir).expect("store opens");
                    start.wait();
                    let front = search(&store);
                    assert_eq!(store.stats().write_failures, 0);
                    front_bytes(&front)
                })
            })
            .collect();
        writers
            .into_iter()
            .map(|w| w.join().expect("writer thread"))
            .collect()
    });
    assert_eq!(fronts[0], fronts[1]);

    let warm = search(&DiskStore::open(&dir).expect("store reopens"));
    assert_eq!(warm.stats.disk_misses, 0, "warm start must not compile");
    assert_eq!(warm.stats.disk_hits, warm.stats.cache_misses);
    assert_eq!(front_bytes(&warm), fronts[0], "warm front diverged");

    let mut blobs = 0;
    for path in files_under(&dir) {
        let name = path.file_name().expect("name").to_string_lossy();
        assert!(!name.contains(".tmp."), "temp file left behind: {name}");
        if path.parent() == Some(dir.as_path()) {
            continue; // a manifest
        }
        let bytes = std::fs::read(&path).expect("blob reads");
        assert_eq!(
            format!("{:032x}.json", fnv1a128(&bytes)),
            name,
            "blob does not hash to its name"
        );
        blobs += 1;
    }
    assert!(blobs > 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cached_failures_are_served_from_disk_without_codegen() {
    // `spin`'s loop has no derivable bound, so every configuration is
    // infeasible — the WCET analysis rejects it after codegen.
    let (cm, em) = pg32_models();
    let dir = temp_dir("failures");
    let ir = compile_to_ir(
        "int spin(int n) { int s = 0; while (n > 0) { n = n - 1; s = s + 1; } return s; }",
    )
    .expect("front-end");
    let config = CompilerConfig::balanced();

    let store = DiskStore::open(&dir).expect("store opens");
    let cold = EvalCache::with_store(&ir, &cm, &em, &store);
    assert!(
        cold.evaluate(&config).is_none(),
        "unbounded loop is infeasible"
    );
    assert_eq!((cold.disk_hits(), cold.disk_misses()), (0, 1));
    assert_eq!(store.entries(), 1, "the failure must be persisted");

    // A fresh cache (new process) is answered "known bad" from disk:
    // `disk_misses() == 0` certifies the compile-and-fail path — codegen
    // included — never ran.
    let warm = EvalCache::with_store(&ir, &cm, &em, &store);
    assert!(warm.evaluate(&config).is_none());
    assert_eq!((warm.disk_hits(), warm.disk_misses()), (1, 0));
    // And a repeat probe in the same process stays in memory.
    assert!(warm.evaluate(&config).is_none());
    assert_eq!((warm.hits(), warm.misses()), (1, 1));
    assert_eq!((warm.disk_hits(), warm.disk_misses()), (1, 0));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Per-function configuration map exercising several distinct pipelines
/// in one module: functions alternate between an aggressive and a
/// minimal configuration.
fn alternating_configs(ir: &teamplay_minic::ir::IrModule) -> HashMap<String, CompilerConfig> {
    let aggressive = CompilerConfig {
        pipeline: Pipeline::o3(),
        mul_shift_add: true,
        pinned_regs: 4,
    };
    let minimal = CompilerConfig {
        pipeline: Pipeline::o1(),
        mul_shift_add: false,
        pinned_regs: 0,
    };
    ir.functions
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let c = if i % 2 == 0 { &aggressive } else { &minimal };
            (f.name.clone(), c.clone())
        })
        .collect()
}

#[test]
fn per_function_passes_are_byte_identical_at_widths_1_2_4() {
    for (app, src, _task) in app_kernels() {
        let ir = compile_to_ir(src).expect("front-end");
        let configs = alternating_configs(&ir);
        let default = CompilerConfig::balanced();
        let sequential = {
            let program =
                compile_module_per_function(&ir, &configs, &default).expect("sequential build");
            serde_json::to_string(&program).expect("program serializes")
        };
        for width in [1usize, 2, 4] {
            let pool = minipool::Pool::new(width);
            let program = compile_module_per_function_on(&pool, &ir, &configs, &default)
                .expect("pooled build");
            let bytes = serde_json::to_string(&program).expect("program serializes");
            assert_eq!(
                bytes, sequential,
                "{app}: width-{width} per-function build diverges from sequential"
            );
        }
    }
}

#[test]
fn pass_manager_run_on_matches_run_at_any_width_across_app_kernels() {
    for (app, src, _task) in app_kernels() {
        for pipeline in [Pipeline::o1(), Pipeline::o2(), Pipeline::o3()] {
            let reference = {
                let mut module = compile_to_ir(src).expect("front-end");
                let mut pm = PassManager::new(pipeline.clone()).expect("pipeline resolves");
                pm.run(&mut module);
                serde_json::to_string(&module).expect("module serializes")
            };
            for width in [1usize, 2, 4] {
                let mut module = compile_to_ir(src).expect("front-end");
                let mut pm = PassManager::new(pipeline.clone()).expect("pipeline resolves");
                pm.run_on(&minipool::Pool::new(width), &mut module);
                let bytes = serde_json::to_string(&module).expect("module serializes");
                assert_eq!(
                    bytes, reference,
                    "{app}: width-{width} run_on diverges from sequential run"
                );
            }
        }
    }
}

#[test]
fn duplicate_function_bodies_are_deduplicated_with_identical_results() {
    // Three byte-identical bodies under different names (plus one
    // distinct function): the pooled runner must optimise one
    // representative and copy it, with output equal to the sequential
    // runner that optimises each copy separately.
    let body = "int s = 0;
        for (int i = 0; i < 12; i = i + 1) { s = s + x * 3 - i; }
        return s;";
    let src = format!(
        "int fa(int x) {{ {body} }}
         int fb(int x) {{ {body} }}
         int fc(int x) {{ {body} }}
         int other(int x) {{ return x * x + 7; }}"
    );
    let ir = compile_to_ir(&src).expect("front-end");
    let reference = {
        let mut module = ir.clone();
        let mut pm = PassManager::o2();
        pm.run(&mut module);
        serde_json::to_string(&module).expect("module serializes")
    };
    for width in [1usize, 2, 4] {
        let mut module = ir.clone();
        let mut pm = PassManager::o2();
        pm.run_on(&minipool::Pool::new(width), &mut module);
        assert_eq!(
            serde_json::to_string(&module).expect("module serializes"),
            reference,
            "width-{width} dedup run diverges"
        );
        // Dedup accounting: 2 unique bodies ran the pipeline, not 4.
        // Each pass records one invocation per fixpoint round per unique
        // body, so totals must be well below the sequential count.
        let sequential_invocations: usize = {
            let mut m = ir.clone();
            let mut spm = PassManager::o2();
            spm.run(&mut m);
            spm.stats().iter().map(|s| s.invocations).sum()
        };
        let deduped_invocations: usize = pm.stats().iter().map(|s| s.invocations).sum();
        assert!(
            deduped_invocations < sequential_invocations,
            "dedup must shrink pass invocations ({deduped_invocations} vs {sequential_invocations})"
        );
    }
}

#[test]
fn compile_many_dedups_jobs_and_is_byte_identical_at_widths_1_2_4() {
    let (cm, em) = pg32_models();
    let job = |id: &str, src: &str, task: &str, seed: u64| CompileJob {
        id: id.to_string(),
        ir: compile_to_ir(src).expect("front-end"),
        tasks: vec![task.to_string()],
        fpa: FpaConfig::tiny(),
        seed,
    };
    // Two identical camera jobs (distinct ids) + one spacewire job:
    // 3 submitted, 2 unique.
    let jobs = vec![
        job("cam-a", teamplay_apps::camera_pill::SOURCE, "compress", 7),
        job("sw", teamplay_apps::spacewire::SOURCE, "crc_frame", 7),
        job("cam-b", teamplay_apps::camera_pill::SOURCE, "compress", 7),
    ];

    let mut baseline: Option<Vec<String>> = None;
    for width in [1usize, 2, 4] {
        let pool = minipool::Pool::new(width);
        let (results, stats) = compile_many(&pool, &jobs, &cm, &em, None);
        assert_eq!(stats.jobs, 3);
        assert_eq!(stats.unique_jobs, 2);
        assert!((stats.dedup_rate - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            results.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
            ["cam-a", "sw", "cam-b"],
            "results must come back in submission order"
        );
        let rendered: Vec<String> = results
            .iter()
            .map(|r| front_bytes(&r.fronts[0].1))
            .collect();
        assert_eq!(rendered[0], rendered[2], "duplicate jobs share one result");
        match &baseline {
            None => baseline = Some(rendered),
            Some(b) => assert_eq!(&rendered, b, "width-{width} batch diverges"),
        }
    }

    // The batched front must equal the one-job-at-a-time front over a
    // fresh cache, on every kernel.
    let kernel_jobs: Vec<CompileJob> = app_kernels()
        .into_iter()
        .map(|(app, src, task)| job(app, src, task, 7))
        .collect();
    let (batched, _) = compile_many(&minipool::Pool::new(2), &kernel_jobs, &cm, &em, None);
    for (job, result) in kernel_jobs.iter().zip(&batched) {
        let cache = EvalCache::new(&job.ir, &cm, &em);
        let request = SearchRequest::new(&job.tasks[0], FpaConfig::tiny(), 7);
        let single = pareto_search(&minipool::Pool::new(1), &cache, &request);
        assert_eq!(
            front_bytes(&result.fronts[0].1),
            front_bytes(&single),
            "{}: compile_many front diverges from a single search",
            job.id
        );
    }
}

#[test]
fn compile_many_warm_starts_from_a_shared_store() {
    let (cm, em) = pg32_models();
    let dir = temp_dir("batch-store");
    let jobs: Vec<CompileJob> = app_kernels()
        .into_iter()
        .map(|(app, src, task)| CompileJob {
            id: app.to_string(),
            ir: compile_to_ir(src).expect("front-end"),
            tasks: vec![task.to_string()],
            fpa: FpaConfig::tiny(),
            seed: 0xC0FFEE,
        })
        .collect();
    let pool = minipool::Pool::new(4);

    let store = DiskStore::open(&dir).expect("store opens");
    let (cold_results, cold) = compile_many(&pool, &jobs, &cm, &em, Some(&store));
    // Four distinct modules: no cross-job key overlap, so the cold
    // counters are exact even with jobs racing on the shared store.
    assert_eq!(cold.search.disk_hits, 0);
    assert_eq!(cold.search.disk_misses, cold.search.cache_misses);

    let warm_store = DiskStore::open(&dir).expect("store reopens");
    let (warm_results, warm) = compile_many(&pool, &jobs, &cm, &em, Some(&warm_store));
    assert_eq!(warm.search.disk_misses, 0, "warm batch must not compile");
    assert_eq!(warm.search.disk_hits, warm.search.cache_misses);
    for (c, w) in cold_results.iter().zip(&warm_results) {
        assert_eq!(
            front_bytes(&c.fronts[0].1),
            front_bytes(&w.fronts[0].1),
            "warm batch front diverges for job {}",
            c.id
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, ..ProptestConfig::default()
    })]

    /// Random loop-nest kernels (the tightness oracle's generator, plus
    /// a byte-identical twin function to exercise dedup): the pooled
    /// pass runners stay byte-identical to the sequential ones at
    /// widths 1/2/4.
    #[test]
    fn random_kernels_are_width_invariant(
        n1 in 1u32..12,
        n2 in 1u32..9,
        inner in 0u32..5,
        step in 1u32..3,
        pivot in -4i32..12,
        c1 in -9i32..9,
        c2 in 1i32..7,
        heavy_on_else in proptest::any::<bool>(),
    ) {
        let heavy = "acc = acc + (a * c + j) / d + a * a;";
        let light = "acc = acc - 1;";
        let (then_arm, else_arm) =
            if heavy_on_else { (light, heavy) } else { (heavy, light) };
        let body = format!(
            "int acc = {c1};
             for (int j = 0; j < {n1}; j = j + {step}) {{
                 int c = 3; int d = {c2};
                 if (a > {pivot}) {{ {then_arm} }} else {{ {else_arm} }}
                 for (int k = 0; k < {inner}; k = k + 1) {{
                     acc = acc + b * k;
                 }}
             }}
             int t = b;
             for (int j = 0; j < {n2}; j = j + 1) {{
                 t = t + j * a - acc;
             }}
             return acc + t;"
        );
        let src = format!(
            "int kernel(int a, int b) {{ {body} }}
             int twin(int a, int b) {{ {body} }}"
        );
        let ir = compile_to_ir(&src).expect("front-end");

        // Whole-module runner under o2 and o3.
        for pipeline in [Pipeline::o2(), Pipeline::o3()] {
            let reference = {
                let mut m = ir.clone();
                let mut pm = PassManager::new(pipeline.clone()).expect("resolves");
                pm.run(&mut m);
                serde_json::to_string(&m).expect("serializes")
            };
            for width in [1usize, 2, 4] {
                let mut m = ir.clone();
                let mut pm = PassManager::new(pipeline.clone()).expect("resolves");
                pm.run_on(&minipool::Pool::new(width), &mut m);
                prop_assert_eq!(
                    &serde_json::to_string(&m).expect("serializes"),
                    &reference,
                    "width {} diverges", width
                );
            }
        }

        // Per-function runner with distinct per-function configs.
        let configs = alternating_configs(&ir);
        let default = CompilerConfig::balanced();
        let sequential = serde_json::to_string(
            &compile_module_per_function(&ir, &configs, &default).expect("builds"),
        )
        .expect("serializes");
        for width in [2usize, 4] {
            let program = compile_module_per_function_on(
                &minipool::Pool::new(width),
                &ir,
                &configs,
                &default,
            )
            .expect("builds");
            prop_assert_eq!(
                &serde_json::to_string(&program).expect("serializes"),
                &sequential,
                "per-function width {} diverges", width
            );
        }
    }
}
