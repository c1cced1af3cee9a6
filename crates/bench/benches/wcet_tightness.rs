//! WCET/WCEC tightness benchmark: structural-vs-IPET bound ratios per
//! application kernel, plus analysis throughput (analyses/second) with
//! and without the per-function content-keyed memo.
//!
//! `analyze_program` runs once per compiled variant — thousands of times
//! per multi-objective search — so it is the hottest analysis path in
//! the repository. This bench records two things the CI gate then
//! guards:
//!
//! * **tightness** — for each app kernel under its tuned pipeline, the
//!   ratio `IPET / structural` for both the cycle and the energy bound
//!   (must sit in `(0, 1]`, with at least one kernel strictly below 1);
//! * **throughput** — full-program analyses per second, uncached vs
//!   through a warm [`teamplay_wcet::AnalysisCache`], which hashes and
//!   compares every function it looks up. The driver's `EvalCache` does
//!   neither: it keys its analyses on the compile memo's code ids.
//!   Each figure is the best of at least 20 rounds, the two kinds
//!   interleaved over at least 20 s (see [`teamplay_bench::timing`]).
//!
//! The run writes the tightness rows to `BENCH_wcet.json` and the
//! wall-clock throughput to `BENCH_wcet_memo.json`, both at the repository
//! root and validated in CI by `support/ci/validate_bench.py`. The
//! tightness rows are deterministic, so CI also fails if a rerun changes
//! `BENCH_wcet.json` at all; the timings vary from run to run and live
//! in their own file for that reason. The run then registers a Criterion
//! timing for the IPET analysis itself. Run with
//! `cargo bench --bench wcet_tightness`.

use criterion::Criterion;
use serde::Serialize;
use std::time::Duration;
use teamplay_bench::timing::{sample_interleaved, Timer};
use teamplay_compiler::{generate_program, CodegenOpts, PassManager};
use teamplay_energy::{analyze_program_energy, analyze_program_energy_structural, IsaEnergyModel};
use teamplay_isa::{CycleModel, Program};
use teamplay_minic::compile_to_ir;
use teamplay_wcet::{
    analyze_program, analyze_program_cached, analyze_program_structural, AnalysisCache,
};

/// One kernel's bounds under both engines.
#[derive(Serialize)]
struct KernelTightness {
    app: String,
    task: String,
    structural_cycles: u64,
    ipet_cycles: u64,
    /// `ipet / structural` — in `(0, 1]`, lower is tighter.
    tightness_ratio: f64,
    structural_wcec_pj: f64,
    ipet_wcec_pj: f64,
    wcec_tightness_ratio: f64,
}

/// `BENCH_wcet.json`: deterministic, so byte-compared in CI.
#[derive(Serialize)]
struct Baseline {
    bench: String,
    engine: String,
    kernels: Vec<KernelTightness>,
}

/// `BENCH_wcet_memo.json`: wall-clock throughput, different every run.
#[derive(Serialize)]
struct Throughput {
    bench: String,
    /// Whole-program IPET analyses per second, fresh every time.
    analyses_per_sec_uncached: f64,
    /// Same analyses through a warm per-function memo.
    analyses_per_sec_memoized: f64,
    memo_speedup: f64,
}

/// The four kernels under their tuned pipelines, compiled once.
fn compiled_kernels() -> Vec<(String, String, Program)> {
    let cat = teamplay_apps::catalog();
    [
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
    .into_iter()
    .map(|(app, src, task)| {
        let mut module = compile_to_ir(src).expect("kernel compiles");
        let mut pm =
            PassManager::new(cat.get(app).expect("registered").clone()).expect("pipeline resolves");
        pm.run(&mut module);
        let program = generate_program(&module, CodegenOpts::default()).expect("codegen succeeds");
        (app.to_string(), task.to_string(), program)
    })
    .collect()
}

fn main() {
    let cm = CycleModel::pg32();
    let em = IsaEnergyModel::pg32_datasheet();
    let kernels = compiled_kernels();

    let tightness: Vec<KernelTightness> = kernels
        .iter()
        .map(|(app, task, program)| {
            let ipet = analyze_program(program, &cm)
                .expect("ipet")
                .wcet_cycles(task)
                .expect("bounded");
            let structural = analyze_program_structural(program, &cm)
                .expect("structural")
                .wcet_cycles(task)
                .expect("bounded");
            let ipet_pj = analyze_program_energy(program, &em, &cm)
                .expect("wcec")
                .wcec_pj(task)
                .expect("bounded");
            let structural_pj = analyze_program_energy_structural(program, &em, &cm)
                .expect("structural wcec")
                .wcec_pj(task)
                .expect("bounded");
            KernelTightness {
                app: app.clone(),
                task: task.clone(),
                structural_cycles: structural,
                ipet_cycles: ipet,
                tightness_ratio: ipet as f64 / structural as f64,
                structural_wcec_pj: structural_pj,
                ipet_wcec_pj: ipet_pj,
                wcec_tightness_ratio: ipet_pj / structural_pj,
            }
        })
        .collect();

    // Throughput: whole-program analyses over all four kernels, the
    // best of interleaved uncached and memoised rounds.
    const REPS: usize = 50;
    let programs: Vec<&Program> = kernels.iter().map(|(_, _, p)| p).collect();
    let cache = AnalysisCache::new();
    for p in &programs {
        analyze_program_cached(p, &cm, &cache).expect("warms");
    }
    let mut timers = [
        Timer::new(|| {
            for _ in 0..REPS {
                for p in &programs {
                    analyze_program(std::hint::black_box(p), &cm).expect("analyses");
                }
            }
        }),
        Timer::new(|| {
            for _ in 0..REPS {
                for p in &programs {
                    analyze_program_cached(std::hint::black_box(p), &cm, &cache).expect("replays");
                }
            }
        }),
    ];
    sample_interleaved(&mut timers);
    let [uncached, memoized] = timers.map(|t| t.best);
    let analyses = (REPS * programs.len()) as f64;
    let per_sec = |t: Duration| analyses / t.as_secs_f64().max(1e-9);

    let baseline = Baseline {
        bench: "wcet_tightness".into(),
        engine: "ipet_loop_nest_dp".into(),
        kernels: tightness,
    };
    let throughput = Throughput {
        bench: "wcet_tightness".into(),
        analyses_per_sec_uncached: per_sec(uncached),
        analyses_per_sec_memoized: per_sec(memoized),
        memo_speedup: memoized.as_secs_f64().max(1e-9).recip() * uncached.as_secs_f64(),
    };
    println!(
        "wcet_tightness: ratios {:?}; {:.0} analyses/s uncached, {:.0} memoized ({:.1}x)",
        baseline
            .kernels
            .iter()
            .map(|k| format!("{}:{:.3}", k.app, k.tightness_ratio))
            .collect::<Vec<_>>(),
        throughput.analyses_per_sec_uncached,
        throughput.analyses_per_sec_memoized,
        throughput.memo_speedup,
    );

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let write = |name: &str, json: String| {
        std::fs::write(format!("{root}/{name}"), json + "\n").expect("baseline written");
    };
    write(
        "BENCH_wcet.json",
        serde_json::to_string_pretty(&baseline).expect("serializes"),
    );
    write(
        "BENCH_wcet_memo.json",
        serde_json::to_string_pretty(&throughput).expect("serializes"),
    );

    let mut c = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    c.bench_function("wcet_ipet_analyze_four_kernels", |b| {
        b.iter(|| {
            for p in &programs {
                analyze_program(std::hint::black_box(p), &cm).expect("analyses");
            }
        })
    });
    c.final_summary();
}
