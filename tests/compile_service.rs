//! Compile-service oracle suite: the persistent content-addressed store,
//! the per-function final build, and the batched `compile_many`
//! front-end.
//!
//! The contracts pinned here:
//!
//! * **Cross-process warm-start determinism** — a search rerun against a
//!   fresh cache instance over the same on-disk store answers every
//!   distinct configuration from disk (zero compiles) and returns a
//!   byte-identical serialized front. Fresh [`DiskStore`] +
//!   [`EvalCache`] instances are exactly what a new process would build,
//!   so this is the cross-process contract minus the fork.
//! * **Programs on demand** — a warm search reads the manifest of every
//!   configuration it probes but assembles only its front variants'
//!   programs from blobs, with the same store counters at widths 1/2/4.
//! * **Final-build faithfulness** — every function of
//!   `compile_module_per_function_on` (the final build's compile on a
//!   fresh compile memo) is byte-identical to the same function of
//!   `compile_module` under that function's configuration, the compile
//!   the search measured, on the four app kernels, a call chain and
//!   generated kernels, whatever pool is passed (widths 1/2/4).
//! * **Pool-width determinism** — the per-function build and
//!   [`compile_many`] produce byte-identical results at widths 1/2/4,
//!   across all four app kernels and the proptest kernel generator.
//! * **Failure persistence** — infeasible configurations are stored
//!   too: a warm process is told "known bad" from disk without ever
//!   invoking codegen.
//! * **Concurrent writers** — two handles racing the same search on one
//!   directory leave a store a fresh handle warm-starts from entirely:
//!   every file a segment of whole records whose checksums hold, no temp
//!   file left, and every blob hashing to its name.

#[path = "common/kernels.rs"]
mod kernels;

use proptest::prelude::*;
use std::collections::HashMap;
use teamplay_compiler::{
    compile_many, compile_module, compile_module_per_function_on, pareto_search, CompileJob,
    CompilerConfig, DiskStore, EvalCache, FpaConfig, ParetoFront, Pipeline, SearchRequest,
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

#[test]
fn warm_runs_assemble_only_front_programs_at_widths_1_2_4() {
    let dir = temp_dir("assembled");
    let ir = compile_to_ir(teamplay_apps::camera_pill::SOURCE).expect("front-end");
    let cold_store = DiskStore::open(&dir).expect("store opens");
    let cold = store_search(&minipool::Pool::new(1), &ir, "compress", &cold_store);
    assert_eq!(cold_store.stats().programs_assembled, 0);

    let mut first = None;
    for width in [1, 2, 4] {
        let store = DiskStore::open(&dir).expect("store reopens");
        let warm = store_search(&minipool::Pool::new(width), &ir, "compress", &store);
        assert_eq!(
            front_bytes(&warm),
            front_bytes(&cold),
            "{width}-thread warm front"
        );
        // Every distinct configuration reads its manifest; only the
        // front's programs are assembled from blobs.
        let stats = store.stats();
        assert_eq!(stats.loads as usize, warm.stats.cache_misses);
        assert_eq!((stats.hits, stats.corrupt_misses), (stats.loads, 0));
        assert_eq!(stats.programs_assembled as usize, warm.variants.len());
        match &first {
            None => first = Some(stats),
            Some(first) => assert_eq!(first, &stats, "{width}-thread store counters"),
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
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

/// The store's record checksum, restated here as an independent check:
/// rotate-xor-multiply over little-endian eight-byte words, the last one
/// zero-padded.
fn checksum(bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(0, |hash: u64, chunk| {
        let mut word = [0; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        (hash.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(0x517c_c1b7_2722_0a95)
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

    // Every file is a segment of whole records: checksum u64, kind u8
    // (3 and 4 are function and globals blobs), key u128, payload length
    // u32, payload, all little-endian.
    let mut blobs = 0;
    for entry in std::fs::read_dir(&dir).expect("store dir reads") {
        let path = entry.expect("entry").path();
        let name = path.file_name().expect("name").to_string_lossy();
        assert!(
            name.ends_with(".seg"),
            "temp or stray file left behind: {name}"
        );
        let bytes = std::fs::read(&path).expect("segment reads");
        let mut at = 0;
        while at < bytes.len() {
            let field = |from: usize, to: usize| bytes.get(at + from..at + to).expect("whole");
            let len = u32::from_le_bytes(field(25, 29).try_into().expect("4 bytes")) as usize;
            let record = field(0, 29 + len);
            let sum = u64::from_le_bytes(record[..8].try_into().expect("8 bytes"));
            assert_eq!(sum, checksum(&record[8..]), "checksum in {name} at {at}");
            if matches!(record[8], 3 | 4) {
                let key = u128::from_le_bytes(record[9..25].try_into().expect("16 bytes"));
                assert_eq!(
                    fnv1a128(&record[29..]),
                    key,
                    "blob does not hash to its name"
                );
                blobs += 1;
            }
            at += record.len();
        }
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
/// in one module: functions cycle through an aggressive configuration, a
/// minimal one, and one that inlines only after value numbering — the
/// order in which a final build that inlined ahead of the rest of the
/// pipeline would compile a different function than the search measured.
/// Function `i` gets configuration `(i + rotation) % 3`.
fn alternating_configs(
    ir: &teamplay_minic::ir::IrModule,
    rotation: usize,
) -> HashMap<String, CompilerConfig> {
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
    let late_inline = CompilerConfig {
        pipeline: "gvn,cse,inline(60),block_layout,const_fold,copy_prop,dce"
            .parse()
            .expect("pipeline resolves"),
        mul_shift_add: false,
        pinned_regs: 2,
    };
    let cycle = [aggressive, minimal, late_inline];
    ir.functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.clone(), cycle[(i + rotation) % cycle.len()].clone()))
        .collect()
}

/// The per-function build of `ir` at `width`, serialized.
fn per_function_bytes(
    ir: &IrModule,
    configs: &HashMap<String, CompilerConfig>,
    default: &CompilerConfig,
    width: usize,
) -> String {
    let program = compile_module_per_function_on(&minipool::Pool::new(width), ir, configs, default)
        .expect("per-function build");
    serde_json::to_string(&program).expect("program serializes")
}

#[test]
fn per_function_passes_are_byte_identical_at_widths_1_2_4() {
    for (app, src, _task) in app_kernels() {
        let ir = compile_to_ir(src).expect("front-end");
        let configs = alternating_configs(&ir, 0);
        let default = CompilerConfig::balanced();
        let narrow = per_function_bytes(&ir, &configs, &default, 1);
        for width in [2usize, 4] {
            assert_eq!(
                per_function_bytes(&ir, &configs, &default, width),
                narrow,
                "{app}: width-{width} per-function build diverges from width 1"
            );
        }
    }
}

/// The final-build faithfulness oracle: at pool widths 1/2/4, every
/// function of the per-function build is byte-identical to the same
/// function of the whole-module [`compile_module`] under that function's
/// configuration — the compile the search measured the variant with.
/// Returns the first divergence, if any.
fn final_build_divergence(
    ir: &IrModule,
    configs: &HashMap<String, CompilerConfig>,
) -> Option<String> {
    let default = CompilerConfig::balanced();
    let mut measured: HashMap<&CompilerConfig, teamplay_isa::Program> = HashMap::new();
    for width in [1usize, 2, 4] {
        let pool = minipool::Pool::new(width);
        let built = compile_module_per_function_on(&pool, ir, configs, &default)
            .expect("per-function build");
        for f in &ir.functions {
            let config = configs.get(&f.name).unwrap_or(&default);
            let whole = measured
                .entry(config)
                .or_insert_with(|| compile_module(ir, config).expect("whole-module build"));
            let bytes = |p: &teamplay_isa::Program| {
                serde_json::to_string(&p.function(&f.name)).expect("function serializes")
            };
            if bytes(&built) != bytes(whole) {
                return Some(format!(
                    "width {width}: `{}` under `{}` differs from its whole-module compile",
                    f.name, config.pipeline
                ));
            }
        }
    }
    None
}

#[test]
fn final_build_compiles_every_function_as_the_search_measured_it() {
    let chain = "int d(int x) { return x * 3 + 1; }
         int c(int x) { return d(x) + d(x + 1) * 2; }
         int b(int x) { int s = c(x); if (x > 4) { s = s + c(x - 1); } return s; }
         int a(int x) {
             int s = 0;
             for (int i = 0; i < 6; i = i + 1) { s = s + b(x + i) - i * 4; }
             return s;
         }";
    let kernels = app_kernels()
        .into_iter()
        .map(|(app, src, _)| (app, src))
        .chain([("call_chain", chain)]);
    for (app, src) in kernels {
        let ir = compile_to_ir(src).expect("front-end");
        for rotation in 0..3 {
            let configs = alternating_configs(&ir, rotation);
            if let Some(divergence) = final_build_divergence(&ir, &configs) {
                panic!("{app}: {divergence}");
            }
        }
    }
}

#[test]
fn duplicate_function_bodies_are_deduplicated_with_identical_results() {
    // Three byte-identical bodies under different names (plus one
    // distinct function), all under one configuration: each twin runs
    // its own pipeline, and all three compile byte-identically to each
    // other (names aside) and to the whole-module compile at every
    // width.
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
    let config = CompilerConfig {
        pipeline: Pipeline::o2(),
        ..CompilerConfig::balanced()
    };
    let configs: HashMap<String, CompilerConfig> = ir
        .functions
        .iter()
        .map(|f| (f.name.clone(), config.clone()))
        .collect();
    assert_eq!(final_build_divergence(&ir, &configs), None);
    let program = compile_module_per_function_on(
        &minipool::Pool::new(2),
        &ir,
        &configs,
        &CompilerConfig::balanced(),
    )
    .expect("per-function build");
    let body_of = |name: &str| {
        let mut f = program.function(name).expect("compiled").clone();
        f.name = String::new();
        serde_json::to_string(&f).expect("function serializes")
    };
    assert_eq!(body_of("fa"), body_of("fb"));
    assert_eq!(body_of("fa"), body_of("fc"));
    assert_ne!(body_of("fa"), body_of("other"));
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
    /// a byte-identical twin function): the per-function build stays
    /// byte-identical whatever pool width it is passed (1/2/4).
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
        let configs = alternating_configs(&ir, 0);
        let default = CompilerConfig::balanced();
        let narrow = per_function_bytes(&ir, &configs, &default, 1);
        for width in [2usize, 4] {
            prop_assert_eq!(
                &per_function_bytes(&ir, &configs, &default, width),
                &narrow,
                "per-function width {} diverges", width
            );
        }
    }

    /// The faithfulness oracle on generated kernels: `f` and its helpers
    /// (calls, aliasing array parameters, stores around calls) under the
    /// alternating configurations.
    #[test]
    fn generated_final_builds_compile_every_function_as_measured(src in kernels::arb_kernel()) {
        let ir = compile_to_ir(&src).expect("front-end");
        for rotation in 0..3 {
            let divergence = final_build_divergence(&ir, &alternating_configs(&ir, rotation));
            prop_assert!(divergence.is_none(), "{:?}\n{}", divergence, src);
        }
    }
}
