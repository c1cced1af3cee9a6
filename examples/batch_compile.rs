//! Batched compilation quickstart: `compile_many` + a persistent store.
//!
//! Submits a fleet of module+contract jobs (with duplicates, as a fleet
//! of clients would) to the batched compile service twice over the same
//! content-addressed on-disk store:
//!
//! 1. **cold** — the store starts empty; every distinct configuration
//!    of every unique job is compiled and spilled to disk;
//! 2. **warm** — a second batch (fresh caches, as a new process would
//!    build) answers every evaluation from disk without compiling. It
//!    reads every manifest it probes but assembles only the programs of
//!    front variants; the warm line prints both counts.
//!
//! After the cold batch it prints the store's on-disk footprint: the
//! evaluation entries, the function and globals blobs they share, and
//! the segment files and bytes that hold them. Last, it runs one
//! camera-pill search on a fresh cache, then the same search on a fresh
//! cache over an empty store, and prints each cache's compile-memo
//! counters: how many pass invocations ran and how many were replayed,
//! how many IR states were interned, how many codegen calls hit the
//! memo, how many distinct functions they generated, how many function
//! analyses hit, and how many programs were assembled (the front
//! variants'; a store writes results back without assembling any, so
//! both lines show the same count). The hit and miss counts can vary
//! with the pool width.
//!
//! CI runs this example as the disk-cache exerciser: it asserts the
//! warm batch performed zero compiles, produced byte-identical fronts,
//! and was at least as fast as the cold batch.
//!
//! ```text
//! cargo run --release --example batch_compile
//! ```

use std::time::Instant;
use teamplay_compiler::{
    compile_many, pareto_search, CompileJob, DiskStore, EvalCache, FpaConfig, SearchRequest,
};
use teamplay_isa::CycleModel;
use teamplay_minic::compile_to_ir;

fn main() {
    let cm = CycleModel::pg32();
    let em = teamplay_energy::IsaEnergyModel::pg32_datasheet();
    let pool = minipool::global();

    // Four distinct modules, each submitted twice under different ids —
    // the batch front-end dedups the copies before scheduling.
    let apps: Vec<(&str, &str, &str)> = vec![
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
    ];
    let jobs: Vec<CompileJob> = apps
        .iter()
        .flat_map(|(app, src, task)| {
            (0..2).map(move |copy| CompileJob {
                id: format!("{app}#{copy}"),
                ir: compile_to_ir(src).expect("front-end"),
                tasks: vec![task.to_string()],
                fpa: FpaConfig::tiny(),
                seed: 0xBA7C4,
            })
        })
        .collect();

    let dir = std::env::temp_dir().join(format!("teamplay-batch-compile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let store = DiskStore::open(&dir).expect("store opens");
    let cold_start = Instant::now();
    let (cold_results, cold) = compile_many(pool, &jobs, &cm, &em, Some(&store));
    let cold_time = cold_start.elapsed();
    let footprint = store.footprint();

    // Fresh store handle + caches: what a brand-new process would build.
    let store = DiskStore::open(&dir).expect("store reopens");
    let warm_start = Instant::now();
    let (warm_results, warm) = compile_many(pool, &jobs, &cm, &em, Some(&store));
    let warm_time = warm_start.elapsed();

    println!(
        "batch_compile: {} jobs ({} unique, {:.0}% dedup) on {} threads",
        cold.jobs,
        cold.unique_jobs,
        cold.dedup_rate * 100.0,
        pool.threads(),
    );
    println!(
        "  cold: {:>8.1?}  ({} compiles spilled to {})",
        cold_time,
        cold.search.disk_misses,
        dir.display(),
    );
    println!(
        "  store: {} entries over {} shared blobs, {} segments, {:.1} KiB on disk",
        footprint.entries,
        footprint.blobs,
        footprint.segments,
        footprint.bytes as f64 / 1024.0,
    );
    let warm_reads = store.stats();
    println!(
        "  warm: {:>8.1?}  ({} disk hits, {} compiles, {:.1}x; \
         {} manifests read / {} programs assembled)",
        warm_time,
        warm.search.disk_hits,
        warm.search.disk_misses,
        cold_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-9),
        warm_reads.loads,
        warm_reads.programs_assembled,
    );
    for (c, w) in cold_results.iter().zip(&warm_results) {
        let (task, front) = &c.fronts[0];
        println!(
            "  {:<14} {task:<12} {} Pareto variants, best WCET {} cycles",
            c.id,
            front.variants.len(),
            front
                .variants
                .iter()
                .map(|v| v.metrics.wcet_cycles)
                .min()
                .unwrap_or(0),
        );
        assert_eq!(
            serde_json::to_string(&front.variants).expect("serializes"),
            serde_json::to_string(&w.fronts[0].1.variants).expect("serializes"),
            "warm front diverged for {}",
            c.id
        );
    }

    // The CI contract: warm answered everything from disk, compiled
    // nothing, and was at least as fast as the cold batch.
    assert_eq!(warm.search.disk_misses, 0, "warm batch must not compile");
    assert_eq!(warm.search.disk_hits, warm.search.cache_misses);
    assert!(
        warm_time <= cold_time,
        "warm batch ({warm_time:?}) slower than cold ({cold_time:?})"
    );

    let _ = std::fs::remove_dir_all(&dir);

    // Below the configuration tier: what the compile memo saved in one
    // cold search, without a store and then with an empty one (every
    // distinct configuration compiles either way, and writing the
    // results back builds no program).
    let ir = compile_to_ir(teamplay_apps::camera_pill::SOURCE).expect("front-end");
    let request = SearchRequest::new("compress", FpaConfig::tiny(), 0xBA7C4);
    let store = DiskStore::open(&dir).expect("store opens");
    for (label, cache) in [
        ("no store", EvalCache::new(&ir, &cm, &em)),
        ("empty store", EvalCache::with_store(&ir, &cm, &em, &store)),
    ] {
        pareto_search(pool, &cache, &request);
        let memo = cache.compile_memo_stats();
        println!(
            "  compile memo (camera_pill, {label}, {} compiles): {} of {} pass invocations \
             replayed, {} IR states, {} of {} codegen calls hit, {} distinct functions, \
             {} of {} function analyses hit, {} programs built",
            cache.misses(),
            memo.pass_replays,
            memo.pass_runs + memo.pass_replays,
            memo.states,
            memo.codegen_hits,
            memo.codegen_hits + memo.codegen_misses,
            memo.codes,
            memo.analysis_hits,
            memo.analysis_hits + memo.analysis_misses,
            memo.programs_built,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
